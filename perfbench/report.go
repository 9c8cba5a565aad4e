package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, measured with tracing
// off. BENCHMARK.json lists the same names in the same order.
var endToEndMetrics = []metricDef{
	{"updates_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
}

// perLayerMetrics come from the traced run. NOTES.md maps each to the
// end-to-end metric it should move and the workload it should show on.
var perLayerMetrics = []metricDef{
	{"gar.ms_per_call", "ms"},
	{"gar.share", "share"},
	{"gar.mb_per_s", "MB/s"},
	{"gar.allocs_per_call", "count"},
	{"gar.calls", "count"},
	{"opt.ms_per_call", "ms"},
	{"opt.share", "share"},
	{"nn.gradient_ms", "ms"},
	{"round.other_ms", "ms"},
	{"round.tail_ms", "ms"},
	{"transport.udp_transfer_ms", "ms"},
	{"transport.packets_per_s", "1/s"},
	{"transport.allocs_per_packet", "count"},
	{"transport.tcp_frame_ms", "ms"},
	{"transport.overhead_ms", "ms"},
	{"transport.datagrams_per_round", "count"},
	{"transport.rcvbuf_errors", "count"},
	{"round.alloc_mb", "MB"},
	{"round.allocs", "count"},
	{"round.gc_cpu_share", "share"},
	{"round.ctx_switches", "count"},
	{"round.sched_latency_p99_us", "us"},
	{"round.drift", "ratio"},
	{"round.received", "count"},
	{"round.skipped", "count"},
	{"churn.crashes", "count"},
	{"churn.rejoins", "count"},
	{"churn.reconnect_attempts", "count"},
	{"churn.below_bound", "count"},
	{"train.final_loss", "nats"},
	{"scenario.cell_p50_ms", "ms"},
	{"scenario.cell_max_ms", "ms"},
	{"scenario.pool_busy_share", "share"},
	{"trace.overhead_share", "share"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, operation counts, failures and notes.
type report struct {
	defs      []metricDef
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []error
	notes     []string
}

func newReport(traced bool) *report {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	return &report{defs: defs, metrics: map[string]metric{}}
}

// set records a metric; a name outside the run's table is a bug.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in this run's table", name))
}

// setZero records the metrics a workload has no such layer for as 0, so
// every run prints the full table. NOTES.md lists which apply where.
func (r *report) setZero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records failed operations with their causes.
func (r *report) fail(n int, errs ...error) {
	r.failed += n
	r.errs = append(r.errs, errs...)
}

// complete checks every metric of the table is present and finite.
func (r *report) complete() error {
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("perfbench: metric %s is %v", d.name, m.Value)
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable table and then, as the last line, the
// JSON result.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAILURE: %v\n", e)
	}
	fmt.Fprintf(w, "# failed_share %d/%d = %.6f\n", r.failed, r.attempted, share(float64(r.failed), float64(r.attempted)))
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", d.name, r.metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0 && len(r.errs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// digestRecord compares a run's determinism digest with the one recorded by
// earlier runs of the same workload configuration and seed (in this
// checkout), recording it on first sight. A mismatch is a run that broke the
// seed-purity invariant.
func digestRecord(dir, key, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of this seed", digest, got)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644)
}
