package main

import (
	"maps"
	"testing"
	"time"
)

// TestSameSeedSameRun checks that each workload is a function of its seed: a fixed number of ops from one seed repeats the op sequence and
// the exact counts of plan-cache hits and misses, atom-cache misses, device
// reads and WAL commits; another seed gives another sequence.
//
// Device reads on checkout-cold also depend on the scene's page layout.
// brepgen.BuildCube links faces to edges in map iteration order, so the
// order in which edge records grow, and move, differs between processes,
// and a few pages of the 3,000-cube scene differ with it. Until the
// generator iterates in a fixed order, that count may differ by a few reads.
func TestSameSeedSameRun(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{seed: 7, length: time.Minute, limit: 400}
			a := mustMeasure(t, sp, cfg)
			b := mustMeasure(t, sp, cfg)
			if a.digest != b.digest {
				t.Errorf("same seed, different op sequences: %x vs %x", a.digest, b.digest)
			}
			if !maps.Equal(a.counts, b.counts) {
				t.Errorf("same seed, different counts:\n%v\n%v", a.counts, b.counts)
			}
			cfg.seed = 8
			if c := mustMeasure(t, sp, cfg); a.digest == c.digest {
				t.Errorf("seeds 7 and 8 gave the same op sequence")
			}
		})
	}
}

func mustMeasure(t *testing.T, sp *spec, cfg config) *outcome {
	t.Helper()
	out, err := measure(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != cfg.limit {
		t.Fatalf("run failed checks (%d of %d ops attempted): %v", out.Attempted, cfg.limit, out.errs)
	}
	return out
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	ds := []time.Duration{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for q, want := range map[float64]time.Duration{0.5: 5, 0.9: 9, 1: 10, 0: 1} {
		if got := quantile(ds, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQuietWindows checks that the end-to-end figures come from the quarter
// of 1-second windows with the most ops, and that a short phase is taken
// whole.
func TestQuietWindows(t *testing.T) {
	counts := []int{1, 5, 2, 8, 3, 7, 4, 6} // ops per window
	var p phaseResult
	p.elapsed = time.Duration(len(counts))*window + window/2
	for w, n := range counts {
		for i := 0; i < n; i++ {
			p.samples = append(p.samples, sample{
				read:  time.Duration(w+1) * time.Millisecond,
				atoms: 1,
				at:    time.Duration(w)*window + time.Duration(i+1)*time.Millisecond,
			})
		}
	}
	// The last, partial window is left out even when it is busy.
	for i := 0; i < 20; i++ {
		p.samples = append(p.samples, sample{read: time.Second, at: p.elapsed - time.Millisecond})
	}
	p.heapMiB = []float64{1}
	s := summarize(p)
	// Windows 3 (8 ops, 4ms) and 5 (7 ops, 6ms): 15 ops in 2s.
	if s.windows != 2 || s.opsPerS != 7.5 || s.atomsPerS != 7.5 || s.reads != 15 {
		t.Errorf("quiet windows: %d windows, %v ops/s, %v atoms/s, %d reads; want 2, 7.5, 7.5, 15", s.windows, s.opsPerS, s.atomsPerS, s.reads)
	}
	if s.readP50us != 4000 || s.readP90us != 6000 {
		t.Errorf("quiet windows: read p50 %vus, p90 %vus; want 4000, 6000", s.readP50us, s.readP90us)
	}

	short := phaseResult{elapsed: 3 * window, samples: p.samples[:6], heapMiB: []float64{1}}
	if s := summarize(short); s.reads != 6 || s.opsPerS != 2 {
		t.Errorf("short phase: %d reads, %v ops/s; want all 6 reads, 2 ops/s", s.reads, s.opsPerS)
	}
}
