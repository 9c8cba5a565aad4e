// Command perfbench is the repository benchmark. One process drives one
// workload through the system's public constructors and entry points
// (ps.New, cluster.NewUDPCluster / cluster.NewTCPCluster + Start, Step in a
// closed loop, scenario.Execute), checks that its outputs are deterministic,
// and prints every metric by name with its unit; the last line of standard
// output is a JSON object.
//
//	python3 perfbench/run.py --workload inproc-bulyan --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it times calls at the layer boundaries from this
// package (wrapped GAR and optimizer handed in through the public configs,
// standalone calls into nn and transport at the workload's shape, OS and
// runtime counters) and prints the per-layer metrics. NOTES.md describes the
// workloads, the metrics and the known defects the workloads expose.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: the generated data, model and spec are a function of it")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	out := fs.String("out", ".bench_build", "directory for span dumps and determinism-digest records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloadNames, *name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	env := readEnvironment()
	fmt.Printf("# env go=%s nproc=%d gomaxprocs=%d cpu=%q commit=%s\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.CPUModel, env.Commit)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)

	steal0, total0, stealErr := cpuTimes()
	budget := time.Duration(*seconds) * time.Second
	r := newReport(*trace == 1)
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	var digest string
	var err error
	if *name == campaignName {
		digest, err = runCampaign(r, *seed, budget, rec)
	} else {
		digest, err = runRounds(r, workloads[*name], *seed, budget, rec)
	}
	if err != nil {
		return err
	}
	r.note("determinism digest %s", digest)
	if steal1, total1, err := cpuTimes(); err == nil && stealErr == nil {
		r.note("cpu steal %.2f%% of machine CPU time during the run", 100*share(float64(steal1-steal0), float64(total1-total0)))
	}
	r.attempted++ // the run itself, checked against earlier runs of its seed
	if err := digestRecord(filepath.Join(*out, "digests"), fmt.Sprintf("%s-seed%d", *name, *seed), digest); err != nil {
		r.fail(1, err)
	}
	if rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.note("%d spans written to %s", len(rec.spans), path)
	}
	if *trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", rss)
		r.set("ok_share", 1-share(float64(r.failed), float64(r.attempted)))
	}
	if err := r.complete(); err != nil {
		return err
	}
	return r.print(os.Stdout)
}
