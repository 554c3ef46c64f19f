package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// MetricsSnapshot is one coherent sample of a Registry: every counter,
// gauge, and histogram by name. It is self-contained (plain data, no
// pointers back into the registry), JSON-serializable for the wire `stats`
// op, and renderable as Prometheus text or flat CSV.
type MetricsSnapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]float64      `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"hists"`
}

// Counter returns the named counter's value (0 if absent).
func (ms *MetricsSnapshot) Counter(name string) uint64 {
	if ms == nil {
		return 0
	}
	return ms.Counters[name]
}

// Gauge returns the named gauge's value (0 if absent).
func (ms *MetricsSnapshot) Gauge(name string) float64 {
	if ms == nil {
		return 0
	}
	return ms.Gauges[name]
}

// Hist returns the named histogram snapshot (empty if absent).
func (ms *MetricsSnapshot) Hist(name string) HistSnapshot {
	if ms == nil {
		return HistSnapshot{}
	}
	return ms.Hists[name]
}

// Merge unions two snapshots into a new one: disjoint names pass through,
// colliding counters and histograms are summed/merged, colliding gauges take
// the other side's value. Used to combine client-side and server-side
// samples into one report.
func (ms *MetricsSnapshot) Merge(other *MetricsSnapshot) *MetricsSnapshot {
	out := &MetricsSnapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistSnapshot{},
	}
	for _, src := range []*MetricsSnapshot{ms, other} {
		if src == nil {
			continue
		}
		for n, v := range src.Counters {
			out.Counters[n] += v
		}
		for n, v := range src.Gauges {
			out.Gauges[n] = v
		}
		for n, h := range src.Hists {
			if prev, ok := out.Hists[n]; ok {
				out.Hists[n] = prev.Merge(h)
			} else {
				out.Hists[n] = h
			}
		}
	}
	return out
}

// Summary renders the database's headline counters — atom cache, buffer,
// device I/O and, when the log is on, the write-ahead log — as one line of
// text for shells and examples. A stalled checkpoint loop is flagged as
// CHECKPOINT FAILING.
func (ms *MetricsSnapshot) Summary() string {
	hits, misses := float64(ms.Counter("buffer_hits")), float64(ms.Counter("buffer_misses"))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = 100 * hits / (hits + misses)
	}
	out := fmt.Sprintf("atoms: %d hits / %d misses, %d invalidations, %d/%d cached; buffer: %d hits / %d misses (%.1f%%), %d evictions; io: %d reads, %d writes, %d blocks in, %d blocks out, %d seeks",
		ms.Counter("atom_cache_hits"), ms.Counter("atom_cache_misses"), ms.Counter("atom_cache_invalidations"),
		int(ms.Gauge("atom_cache_atoms")), int(ms.Gauge("atom_cache_budget")),
		ms.Counter("buffer_hits"), ms.Counter("buffer_misses"), ratio, ms.Counter("buffer_evictions"),
		ms.Counter("io_reads"), ms.Counter("io_writes"), ms.Counter("io_blocks_read"), ms.Counter("io_blocks_written"), ms.Counter("io_seeks"))
	if ms.Gauge("wal_enabled") != 0 {
		out += fmt.Sprintf("; wal: %d records / %d bytes, %d commits in %d batches (%d syncs), %d checkpoints, %d recoveries",
			ms.Counter("wal_appends"), ms.Counter("wal_bytes"), ms.Counter("wal_commits"),
			ms.Counter("wal_batches"), ms.Counter("wal_syncs"), ms.Counter("wal_checkpoints"), ms.Counter("wal_recoveries"))
		if ms.Gauge("wal_checkpoint_failing") != 0 {
			out += "; CHECKPOINT FAILING: log truncation has stalled"
		}
	}
	return out
}

// promName maps an internal metric name to a Prometheus metric name:
// "prima_" prefix, with the "_ns" latency suffix rewritten to "_seconds"
// (values are scaled to match).
func promName(name string) (string, bool) {
	seconds := strings.HasSuffix(name, "_ns")
	if seconds {
		name = strings.TrimSuffix(name, "_ns") + "_seconds"
	}
	return "prima_" + name, seconds
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format. Counters and gauges map directly; histograms are emitted as native
// Prometheus histograms with cumulative le buckets (only the populated
// buckets plus +Inf — a valid sparse encoding), with nanosecond metrics
// converted to seconds per Prometheus convention.
func (ms *MetricsSnapshot) PrometheusText(w io.Writer) error {
	for _, name := range sortedKeys(ms.Counters) {
		pn, _ := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, ms.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(ms.Gauges) {
		pn, _ := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, ms.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(ms.Hists) {
		hs := ms.Hists[name]
		pn, seconds := promName(name)
		scale := 1.0
		if seconds {
			scale = 1e-9
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum uint64
		for _, b := range hs.Buckets {
			cum += b.Count
			_, hi := histBucketBounds(b.Idx)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, hi*scale, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, hs.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, float64(hs.Sum)*scale, pn, hs.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the snapshot as flat CSV — one row per scalar fact
// (kind,name,field,value) — for spreadsheet or script post-processing.
// Histograms expand to count/sum/mean and the standard quantiles.
func (ms *MetricsSnapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,name,field,value"); err != nil {
		return err
	}
	for _, name := range sortedKeys(ms.Counters) {
		if _, err := fmt.Fprintf(w, "counter,%s,value,%d\n", name, ms.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(ms.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge,%s,value,%g\n", name, ms.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(ms.Hists) {
		hs := ms.Hists[name]
		rows := []struct {
			field string
			v     float64
		}{
			{"count", float64(hs.Count)},
			{"sum", float64(hs.Sum)},
			{"mean", hs.Mean()},
			{"p50", hs.P50},
			{"p90", hs.P90},
			{"p99", hs.P99},
			{"p999", hs.P999},
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "hist,%s,%s,%g\n", name, r.field, r.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving snapshots from src: Prometheus
// text by default, CSV with ?format=csv, JSON with ?format=json. Used by
// primad's -metrics-addr endpoint.
func Handler(src func() *MetricsSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ms := src()
		switch req.URL.Query().Get("format") {
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			_ = ms.WriteCSV(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ms)
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = ms.PrometheusText(w)
		}
	})
}
