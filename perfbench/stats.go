package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// sample is one completed op. read and write are the latencies of the op's
// read part (checkout, query, SELECT in a transaction) and write part
// (checkin, autocommit MODIFY, MODIFY script plus Commit); a part the op
// does not have is 0.
type sample struct {
	read  time.Duration
	write time.Duration
	atoms int           // atoms delivered to the caller
	at    time.Duration // completion, since the phase began
}

// phaseResult is what one measured phase recorded.
type phaseResult struct {
	elapsed time.Duration // until the last op completed
	samples []sample
	heapMiB []float64 // live heap, sampled every heapEvery
}

// summary is the end-to-end view of one measured phase.
type summary struct {
	opsPerS    float64
	atomsPerS  float64
	readP50us  float64
	readP90us  float64
	writeP50us float64
	writeP90us float64
	liveHeapMB float64
	reads      int // read samples the percentiles are taken over
	writes     int // write samples the percentiles are taken over
	windows    int // windows the figures are computed over
}

// window is the length of the slices summarize cuts a phase into.
const window = time.Second

// quietShare is the share of a phase's windows, those that completed the
// most ops, that summarize computes the end-to-end figures over.
//
// Other tenants of a shared host slow this program down in spells of
// seconds, by up to 2x, and never speed it up: in the 1-second windows of
// one checkout-hot run, p50 sits near 300us in some and near 500us in
// others. Over a whole run, the figures depend on how much of it fell in
// such spells, and the p50 of the mixture jumps between the levels: over
// ten runs of the same code, read_p50_us had an interquartile range of 35%
// of its median, against 13% over the quiet quarter. Over the quarter of
// windows that completed the most ops the figures measure the program when
// it had the CPU, and a change to the program moves every window. A stall
// of the program's own that recurs less often than in every fourth second
// would not show in them; the whole-run figures are printed beside them.
const quietShare = 0.25

// summarize computes the end-to-end figures of a phase from its raw
// samples, over the quiet windows (see quietShare): rates over their total
// length, and percentiles as exact order statistics of all latencies of
// ops completed in them. A phase shorter than 4 windows is taken whole.
func summarize(p phaseResult) summary {
	s := summarizeSamples(quietWindows(p))
	// The second half only: by then the caches and the wire client's
	// object buffer, which grows with every cube checked out, have filled.
	s.liveHeapMB = median(p.heapMiB[len(p.heapMiB)/2:])
	return s
}

// quietWindows returns the phase reduced to its quiet windows.
func quietWindows(p phaseResult) phaseResult {
	n := int(p.elapsed / window)
	if n < 4 {
		return p
	}
	byWin := make([][]sample, n)
	for _, sm := range p.samples {
		if i := int(sm.at / window); i < n {
			byWin[i] = append(byWin[i], sm)
		}
	}
	sort.SliceStable(byWin, func(i, j int) bool { return len(byWin[i]) > len(byWin[j]) })
	k := int(math.Round(quietShare * float64(n)))
	q := phaseResult{elapsed: time.Duration(k) * window}
	for _, w := range byWin[:k] {
		q.samples = append(q.samples, w...)
	}
	return q
}

// summarizeSamples computes rates over p.elapsed and latency percentiles
// over all of p's samples.
func summarizeSamples(p phaseResult) summary {
	var s summary
	var reads, writes []time.Duration
	atoms := 0
	for _, sm := range p.samples {
		atoms += sm.atoms
		if sm.read > 0 {
			reads = append(reads, sm.read)
		}
		if sm.write > 0 {
			writes = append(writes, sm.write)
		}
	}
	sec := p.elapsed.Seconds()
	s.opsPerS = per(float64(len(p.samples)), sec)
	s.atomsPerS = per(float64(atoms), sec)
	s.reads, s.writes = len(reads), len(writes)
	s.windows = int(p.elapsed / window)
	if len(reads) > 0 {
		s.readP50us, s.readP90us = micros(quantile(reads, 0.50)), micros(quantile(reads, 0.90))
	}
	if len(writes) > 0 {
		s.writeP50us, s.writeP90us = micros(quantile(writes, 0.50)), micros(quantile(writes, 0.90))
	}
	return s
}

// heapEvery is how often sampleHeap reads the live heap: often enough to
// see every tooth of the WAL sawtooth several times, which at the commit
// rate of design-tx repeats about every two seconds.
const heapEvery = 50 * time.Millisecond

// sampleHeap reads the live heap, as the last GC marked it, every heapEvery
// until stop is closed. The median of these readings is live_heap_mb: a
// single reading at the end of a run would land anywhere in the sawtooth
// that the in-memory WAL segment draws as it fills and is truncated.
func sampleHeap(stop <-chan struct{}) []float64 {
	t := time.NewTicker(heapEvery)
	defer t.Stop()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out []float64
	for {
		select {
		case <-stop:
			if len(out) == 0 {
				metrics.Read(live)
				out = append(out, float64(live[0].Value.Uint64())/(1<<20))
			}
			return out
		case <-t.C:
			metrics.Read(live)
			out = append(out, float64(live[0].Value.Uint64())/(1<<20))
		}
	}
}

// quantile returns the exact q-quantile of ds (nearest rank), sorting ds in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// median returns the median of xs (mean of the middle two for even counts),
// or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
