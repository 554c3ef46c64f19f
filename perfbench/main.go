// Command perfbench measures PRIMA from outside, through its public
// interfaces: wire.Client against an in-process wire.Server over an
// in-memory pipe, and prima.DB and Tx in-process. It runs one workload (or,
// with --workload all, each in turn) for a fixed time, checks every result,
// and prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run, as a JSON line at the end of each workload's
// output:
//
//	go run . --workload checkout-hot --seed 1 --seconds 10 --trace 0
//
// Workloads (see specs):
//
//	checkout-hot   1 wire client over 100 cubes that fit the caches:
//	               90% checkouts, 10% checkins of one edge
//	checkout-cold  the same mix over 3,000 cubes, 30x the atom cache
//	design-tx      in-process transactions: select a cube, MODIFY its 12
//	               edges, commit
//
// BENCHMARK.json, at the root of the repository, runs checkout-cold and
// design-tx, which between them reach every layer. checkout-hot, the
// all-hits contrast to checkout-cold, runs when named.
//
// Devices are in memory, the WAL is on with the default group commit, and
// the program's tracer is off; latencies are those of the host it runs on.
// Every workload runs with GOMAXPROCS 1 (see procs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"prima/internal/storage/wal"
)

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	seed   uint64
	length time.Duration
	trace  bool
	limit  int    // ops to run instead of a deadline, when > 0
	spans  string // directory for the traced run's spans, "" for none
}

// outcome is what a run measured and checked.
type outcome struct {
	result
	errs     []string
	setups   []float64
	spanText string
	digest   uint64            // of the op sequence
	counts   map[string]uint64 // counter deltas of the measured phases
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the op sequence")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded in the output")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	sp := specByName(*name)
	if sp == nil && *name != "all" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	if sp == nil {
		os.Exit(runAll())
	}
	runtime.GOMAXPROCS(procs)
	env := map[string]any{
		"workload":     sp.name,
		"seed":         *seed,
		"seconds":      *seconds,
		"trace":        *trace,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       *commit,
		"transport":    transport(sp),
		"flush_policy": fmt.Sprintf("in-memory devices, WAL on, group commit max wait %v, batch %d", wal.DefaultGroupCommitMaxWait, wal.DefaultGroupCommitBatch),
		"tracer":       "off (TraceSampleRate 0, SlowQueryThreshold 0)",
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	out, err := run(sp, config{seed: *seed, length: time.Duration(*seconds) * time.Second, trace: *trace == 1, spans: *spans})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	report(out)
	if !out.Correct {
		os.Exit(1)
	}
}

// procs is the GOMAXPROCS every workload runs with. The load is one
// closed-loop session, whose ops hand work between goroutines: the
// session's and the wire server's for its connection, the assembly
// pipeline's, the WAL flusher's. With two, these hand-offs flip, every few
// seconds, between staying on one CPU and waking a goroutine on the other:
// checkout latency then moves between two levels 1.5x apart, and how long
// the wake-ups take follows the load of the shared host. With one, every
// hand-off stays on one thread; design-tx's read_p50_us spread 8% over ten
// runs against 25% with two.
const procs = 1

// transport names how the workload reaches the database, for the env line.
func transport(sp *spec) string {
	if sp.wire {
		return "wire.Client to wire.Server over net.Pipe"
	}
	return "in-process"
}

// runAll runs every workload with the same flags, each in a process of its
// own so that no workload's heap or runtime state carries into the next, and
// returns the exit code: 0 when every run passed its checks.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		args := []string{"--workload", sp.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code
}

// report prints the span table of a traced run, every metric with its unit,
// the failed checks, and the result line.
func report(out *outcome) {
	fmt.Print(out.spanText)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, e := range out.errs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	line, _ := json.Marshal(out.result)
	fmt.Println(string(line))
}

// run measures the workload and then sets it up again until it has
// sp.setups set-up times; setup_s is their median. The traced run skips the
// extra set-ups.
func run(sp *spec, cfg config) (*outcome, error) {
	out, err := measure(sp, cfg)
	if err != nil || cfg.trace {
		return out, err
	}
	// The first set-up ran in a fresh process; the others after a GC, with
	// the earlier databases closed.
	for i := 1; i < sp.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := setUp(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", sp.name, i+1, err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		r.close()
	}
	fmt.Printf("set-ups (s): %v\n", out.setups)
	out.Metrics["setup_s"] = metric{median(out.setups), "s"}
	return out, nil
}

// measure sets the workload up once, measures it and checks it. With
// cfg.trace it measures an untraced and a traced phase of half the length
// each and reports per-layer metrics; otherwise one untraced phase and the
// end-to-end metrics.
func measure(sp *spec, cfg config) (*outcome, error) {
	out := &outcome{}
	t0 := time.Now()
	r, err := setUp(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	out.setups = append(out.setups, time.Since(t0).Seconds())
	defer r.close()
	s := r.session(cfg.seed)

	runtime.GC()
	first := r.probe()
	var sum, whole, plain, traced summary
	var mid, last probe
	if cfg.trace {
		half := cfg.length / 2
		plain = summarize(r.phase(s, half, cfg.limit, false))
		mid = r.probe()
		traced = summarize(r.phase(s, half, cfg.limit, true))
		last = r.probe()
	} else {
		ph := r.phase(s, cfg.length, cfg.limit, false)
		last = r.probe()
		sum, whole = summarize(ph), summarizeSamples(ph)
	}
	// The server closes a checkout's cursor after the client has read the
	// last frame, so the snapshot count is read once the server has stopped.
	r.stopWire()
	if cfg.trace {
		out.Metrics = perLayer(delta{mid, last}, s, r.db.OpenSnapshots())
		out.Metrics["bench.trace_overhead_pct"] = metric{100 * (per(plain.opsPerS, traced.opsPerS) - 1), "%"}
		out.spanText = spanTable(s.tr)
		if cfg.spans != "" {
			path := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-%d.csv", sp.name, cfg.seed))
			if err := writeSpans(path, s.tr); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			out.spanText += "  spans written to " + path + "\n"
		}
	}
	d := delta{first, last}
	out.counts = map[string]uint64{}
	for _, n := range []string{"plan_cache_hits", "plan_cache_misses", "atom_cache_misses", "io_reads", "wal_commits"} {
		out.counts[n] = last.ms.Counter(n) - first.ms.Counter(n)
	}

	out.Attempted, out.Failed, out.digest = s.n.attempted, s.n.failed, s.digest
	if s.firstErr != nil {
		out.errs = append(out.errs, fmt.Sprintf("%d of %d ops failed, first: %v", s.n.failed, s.n.attempted, s.firstErr))
	}
	if err := sp.regime(d, s); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	if n := r.db.OpenSnapshots(); n != 0 {
		out.errs = append(out.errs, fmt.Sprintf("%d snapshots still open after the run", n))
	}
	checked, lost, err := r.verifyWrites(s)
	if err != nil {
		return nil, err
	}
	fmt.Printf("verified %d acknowledged edge writes, %d lost\n", checked, lost)
	if lost > 0 {
		out.Failed += lost
		out.errs = append(out.errs, fmt.Sprintf("%d of %d acknowledged writes lost", lost, checked))
	}
	out.Correct = out.Attempted > 0 && len(out.errs) == 0
	if cfg.trace {
		return out, nil
	}

	fmt.Printf("whole run: %d reads, %d writes in %v; %.1f ops/s, read p50 %.1fus p90 %.1fus, write p50 %.1fus p90 %.1fus\n",
		whole.reads, whole.writes, cfg.length, whole.opsPerS, whole.readP50us, whole.readP90us, whole.writeP50us, whole.writeP90us)
	fmt.Printf("end-to-end figures over the quietest %d of %d windows of %v: %d reads, %d writes\n",
		sum.windows, whole.windows, window, sum.reads, sum.writes)
	out.Metrics = map[string]metric{
		"setup_s":      {out.setups[0], "s"},
		"ops_per_s":    {sum.opsPerS, "1/s"},
		"atoms_per_s":  {sum.atomsPerS, "1/s"},
		"read_p50_us":  {sum.readP50us, "us"},
		"read_p90_us":  {sum.readP90us, "us"},
		"write_p50_us": {sum.writeP50us, "us"},
		"write_p90_us": {sum.writeP90us, "us"},
		"live_heap_mb": {sum.liveHeapMB, "MiB"},
	}
	return out, nil
}
