package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"prima/internal/obs"
)

// span is one timed call the benchmark made into a layer's entry point, or
// (name "op") the whole op that made it. Times are since the phase start.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index of the enclosing span, -1 for an op
	op         int // op sequence number
}

// spanLog keeps the spans of a traced phase in memory. A nil *spanLog records
// nothing, so the untraced path costs one nil check per call site.
type spanLog struct {
	t0    time.Time
	spans []span
	cur   int // index of the open op span
}

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, 0, 1<<16), cur: -1}
}

func (l *spanLog) beginOp(op int) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: "op", start: time.Since(l.t0), parent: -1, op: op})
	l.cur = len(l.spans) - 1
}

func (l *spanLog) endOp() {
	if l == nil {
		return
	}
	l.spans[l.cur].end = time.Since(l.t0)
	l.cur = -1
}

// begin opens a child span of the current op and returns its index.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t0), parent: l.cur, op: l.spans[l.cur].op})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = time.Since(l.t0)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration
	self  time.Duration // total minus the time children cover
}

// spanStats aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals.
func spanStats(l *spanLog) map[string]*spanStat {
	out := map[string]*spanStat{}
	covered := make([]time.Duration, len(l.spans))
	// Children do not overlap one another (the session makes one call at a
	// time), so their union is their sum.
	for _, sp := range l.spans {
		if sp.parent >= 0 {
			covered[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range l.spans {
		st := out[sp.name]
		if st == nil {
			st = &spanStat{}
			out[sp.name] = st
		}
		d := sp.end - sp.start
		st.count++
		st.total += d
		st.self += d - covered[i]
	}
	return out
}

// writeSpans writes every span as CSV: op, index, parent, name, start and
// end in nanoseconds since the traced phase started.
func writeSpans(path string, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,span,parent,name,start_ns,end_ns")
	for i, sp := range l.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", sp.op, i, sp.parent, sp.name, sp.start.Nanoseconds(), sp.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connStats counts the client side of the wire: Read and Write calls on
// its connection and the bytes they moved.
type connStats struct {
	reads, writes, bytes atomic.Uint64
}

// countConn is a net.Conn that feeds connStats; the client gets it through
// wire.ClientConfig.Dialer.
type countConn struct {
	net.Conn
	st *connStats
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytes.Add(uint64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.bytes.Add(uint64(n))
	return n, err
}

// probe is one reading of every counter the per-layer figures derive from.
type probe struct {
	ms                   *obs.MetricsSnapshot
	rt                   []metrics.Sample
	reads, writes, bytes uint64
	retries              uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (r *rig) probe() probe {
	p := probe{ms: r.db.Metrics(), rt: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		p.rt[i].Name = n
	}
	metrics.Read(p.rt)
	p.reads, p.writes, p.bytes = r.conn.reads.Load(), r.conn.writes.Load(), r.conn.bytes.Load()
	if r.client != nil {
		p.retries, _ = r.client.Retries()
	}
	return p
}

// delta is the change of every counter between two probes.
type delta struct{ a, b probe }

func (d delta) counter(name string) float64 {
	return float64(d.b.ms.Counter(name) - d.a.ms.Counter(name))
}

func (d delta) histSum(name string) float64 {
	return float64(d.b.ms.Hist(name).Sum - d.a.ms.Hist(name).Sum)
}

func (d delta) histCount(name string) float64 {
	return float64(d.b.ms.Hist(name).Count - d.a.ms.Hist(name).Count)
}

func (d delta) runtime(i int) float64 {
	a, b := d.a.rt[i].Value, d.b.rt[i].Value
	if a.Kind() == metrics.KindFloat64 {
		return b.Float64() - a.Float64()
	}
	return float64(b.Uint64() - a.Uint64())
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// per returns x/n, or 0 when n is 0.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// cacheRegime checks the cache hit ratios of a measured phase: the atom
// cache's, and the plan cache's over query lookups only. Each DML text the
// session sends is unique (it carries a new value), so it is exactly one
// plan-cache miss, which is taken out before the ratio is formed.
func cacheRegime(lo, hi float64) func(delta, *session) error {
	return func(d delta, s *session) error {
		atom := ratio(d.counter("atom_cache_hits"), d.counter("atom_cache_misses"))
		plan := ratio(d.counter("plan_cache_hits"), d.counter("plan_cache_misses")-float64(s.n.dmlProbes))
		if atom < lo || atom > hi || plan < lo || plan > hi {
			return fmt.Errorf("off regime: atom-cache hit ratio %.3f, query plan-cache hit ratio %.3f, want both in [%.1f, %.1f]", atom, plan, lo, hi)
		}
		return nil
	}
}

// txRegime checks that every acknowledged commit reached the WAL as one
// commit record and that no transaction conflicted.
func txRegime(d delta, s *session) error {
	if got := int(d.counter("wal_commits")); got != s.n.writes || s.n.conflicts != 0 {
		return fmt.Errorf("off regime: %d WAL commits for %d acknowledged commits, %d conflicts", got, s.n.writes, s.n.conflicts)
	}
	return nil
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer derives the per-layer figures of a traced phase from the counter
// deltas, the spans and the session's counts.
func perLayer(d delta, s *session, snapshotsEnd int) map[string]metric {
	st := spanStats(s.tr)
	ops := float64(len(s.samples))
	writes := float64(s.n.writes - s.phaseN.writes)
	mols := float64(s.n.molecules - s.phaseN.molecules)
	conflicts := float64(s.n.conflicts - s.phaseN.conflicts)
	us := func(ns float64) float64 { return ns / 1e3 }
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// wire: client round trip, server handling, and what is left for the
	// client, the codec and the socket.
	rtt := spanMean(st, "Client.Checkout", "Client.Checkin")
	server := per(us(d.histSum("wire_checkout_ns")+d.histSum("wire_exec_ns")), d.histCount("wire_checkout_ns")+d.histCount("wire_exec_ns"))
	put("wire.client_rtt_us", "us", rtt)
	put("wire.server_us", "us", server)
	put("wire.self_us", "us", rtt-server)
	put("wire.bytes_per_op", "B", per(float64(d.b.bytes-d.a.bytes), ops))
	put("wire.conn_reads_per_op", "count", per(float64(d.b.reads-d.a.reads), ops))
	put("wire.conn_writes_per_op", "count", per(float64(d.b.writes-d.a.writes), ops))
	put("wire.retries", "count", float64(d.b.retries-d.a.retries))

	// core: parse, plan, assemble and DML execution.
	put("core.parse_us", "us", per(us(d.histSum("core_parse_ns")), ops))
	put("core.plan_us", "us", per(us(d.histSum("core_plan_ns")), ops))
	put("core.plan_cache_hit_ratio", "ratio", ratio(d.counter("plan_cache_hits"), d.counter("plan_cache_misses")))
	put("core.assemble_us_per_molecule", "us", per(us(d.histSum("core_assemble_ns")), mols))
	dml := spanMean(st, "Tx.Exec:modify")
	if d.histCount("wire_exec_ns") > 0 {
		dml = per(us(d.histSum("wire_exec_ns")), d.histCount("wire_exec_ns"))
	}
	put("core.dml_us", "us", dml)

	// access: decoded-atom cache, record decoding, MVCC.
	put("access.atom_cache_hit_ratio", "ratio", ratio(d.counter("atom_cache_hits"), d.counter("atom_cache_misses")))
	put("access.atom_cache_evictions_per_op", "count", per(d.counter("atom_cache_evictions"), ops))
	put("access.decode_us", "us", per(us(d.histSum("access_decode_ns")), ops))
	put("access.mvcc_versions", "count", d.b.ms.Gauge("mvcc_versions"))
	put("access.open_snapshots_end", "count", float64(snapshotsEnd))

	// storage: buffer pool and device.
	put("storage.buffer_hit_ratio", "ratio", ratio(d.counter("buffer_hits"), d.counter("buffer_misses")))
	put("storage.io_reads_per_op", "count", per(d.counter("io_reads"), ops))
	put("storage.io_blocks_read_per_op", "count", per(d.counter("io_blocks_read"), ops))
	put("storage.buffer_evictions_per_op", "count", per(d.counter("buffer_evictions"), ops))
	put("storage.buffer_read_us", "us", per(us(d.histSum("buffer_read_ns")), ops))

	// wal: log volume per acknowledged write, group-commit batching, flush
	// and append times.
	flush := per(us(d.histSum("wal_flush_ns")), d.histCount("wal_flush_ns"))
	put("wal.bytes_per_commit", "B", per(d.counter("wal_bytes"), writes))
	put("wal.commits_per_sync", "count", per(d.counter("wal_commits"), d.counter("wal_syncs")))
	put("wal.flush_us", "us", flush)
	put("wal.append_us", "us", per(us(d.histSum("wal_append_ns")), d.histCount("wal_append_ns")))

	// txn: statement execution and commit inside transactions.
	commit := spanMean(st, "Tx.Commit")
	put("txn.exec_us", "us", spanMean(st, "Tx.Exec:select", "Tx.Exec:modify"))
	put("txn.commit_us", "us", commit)
	wait := 0.0
	if commit > 0 {
		wait = commit - flush
	}
	put("txn.commit_wait_us", "us", wait)
	put("txn.conflicts", "count", conflicts)

	// runtime: allocation and garbage collection.
	put("runtime.alloc_bytes_per_op", "B", per(d.runtime(0), ops))
	put("runtime.allocs_per_op", "count", per(d.runtime(1), ops))
	put("runtime.gc_cycles_per_kop", "count", per(1000*d.runtime(2), ops))
	put("runtime.gc_cpu_frac", "ratio", per(d.runtime(3), d.runtime(4)))
	return m
}

// spanMean is the mean duration in microseconds over spans of the names.
func spanMean(st map[string]*spanStat, names ...string) float64 {
	var n int
	var total time.Duration
	for _, name := range names {
		if s := st[name]; s != nil {
			n += s.count
			total += s.total
		}
	}
	if n == 0 {
		return 0
	}
	return micros(total) / float64(n)
}

// spanTable renders count, mean and mean self time per span name.
func spanTable(l *spanLog) string {
	st := spanStats(l)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("  %-18s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, n := range names {
		s := st[n]
		out += fmt.Sprintf("  %-18s %9d %12.2f %12.2f\n", n, s.count, spanMean(st, n), micros(s.self)/float64(s.count))
	}
	return out
}
