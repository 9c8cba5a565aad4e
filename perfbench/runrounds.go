package main

import (
	"fmt"
	"time"
)

// runRounds runs a round workload and returns its determinism digest.
//
// Untraced, episodes run back to back for the whole budget and fill the
// end-to-end metrics. Traced, an untraced phase (two fifths of the budget)
// is followed by as many episodes with span-recording boundaries; every
// episode of both phases must produce the same digest, which is what shows
// the wrappers change nothing. The untraced phase also carries the runtime
// and OS counters, and standalone layer calls close the run.
func runRounds(r *report, w *roundWorkload, seed int64, budget time.Duration, rec *recorder) (string, error) {
	if rec == nil {
		p, err := runPhase(w, seed, boundaries{}, budget, 1)
		if err != nil {
			return "", err
		}
		p.account(r, p[0].digest)
		p.endToEnd(r)
		return p[0].digest, nil
	}
	base, err := runPhase(w, seed, boundaries{}, budget*2/5, 1)
	if err != nil {
		return "", err
	}
	traced, err := runPhase(w, seed, boundaries{rec: rec}, 0, len(base))
	if err != nil {
		return "", err
	}
	want := base[0].digest
	base.account(r, want)
	traced.account(r, want)

	st := summarise(rec.spans)
	roundP50 := median(st.rounds)
	garCalls, optCalls := st.calls["gar"], st.calls["opt"]
	r.set("gar.ms_per_call", median(garCalls))
	r.set("gar.share", share(median(st.perRound["gar"]), roundP50))
	r.set("gar.mb_per_s", median(st.throughputs["gar"]))
	r.set("gar.allocs_per_call", share(float64(st.allocs["gar"]), float64(len(garCalls))))
	r.set("gar.calls", float64(len(garCalls))/float64(len(traced)))
	r.set("opt.ms_per_call", median(optCalls))
	r.set("opt.share", share(median(st.perRound["opt"]), roundP50))
	r.set("round.other_ms", median(st.self))
	r.set("trace.overhead_share", 1-share(traced.updatesPerSec(), base.updatesPerSec()))
	r.note("traced round p50 %.3f ms over %d rounds: gar %.1f%% (paper Fig. 4: %.0f%%), opt %.1f%%, other %.1f%% (self times)",
		roundP50, len(st.rounds), 100*share(median(st.perRound["gar"]), roundP50), 100*w.fig4Share,
		100*share(median(st.perRound["opt"]), roundP50), 100*share(median(st.self), roundP50))

	base.counters(r)
	c := sumCounts(base[0].results)
	r.set("round.received", float64(c.received))
	r.set("round.skipped", float64(c.skipped))
	r.set("churn.crashes", float64(c.crashes))
	r.set("churn.rejoins", float64(c.rejoins))
	r.set("churn.reconnect_attempts", float64(c.reconnectAttempts))
	r.set("churn.below_bound", float64(c.belowBound))
	r.set("train.final_loss", finalLoss(base[0].results))
	r.set("round.drift", base.drift())
	t, pct, ok := tail(base.steps(), tailMinBeyond)
	r.set("round.tail_ms", t)
	r.note("round.tail_ms is %s of %d untraced rounds", tailLabel(pct, ok), len(base.steps()))
	r.setZero("scenario.cell_p50_ms", "scenario.cell_max_ms", "scenario.pool_busy_share")

	overhead := 0.0
	if w.twin != nil {
		tw, err := runEpisode(w, w.twin, seed, boundaries{})
		if err != nil {
			return "", fmt.Errorf("in-process twin: %w", err)
		}
		r.attempted += len(tw.steps)
		r.fail(tw.failed, tw.errs...)
		overhead = median(base.steps()) - median(tw.steps)
		r.note("transport.overhead_ms: round p50 %.3f ms against %.3f ms for the loss-free in-process twin",
			median(base.steps()), median(tw.steps))
	}
	r.set("transport.overhead_ms", overhead)
	return want, standaloneLayers(r, w.task, w.codec, seed)
}

// account adds the phase's operations and failures to the report: Step
// errors, rounds that reached the deadline, and episodes with wrong output.
func (p phase) account(r *report, want string) {
	attempted, failed := p.attempted()
	wrong, errs := p.check(want)
	r.attempted += attempted
	r.fail(failed+wrong, errs...)
}

// counters fills the per-round runtime and OS counter deltas of the phase,
// summed over its episodes' rounds (set-up and Close excluded).
func (p phase) counters(r *report) {
	var rounds, allocBytes, allocObjects, ctx, datagrams, rcvbuf float64
	var gcCPU, totalCPU float64
	var sched []uint64
	buckets := p[0].rt1.sched.Buckets
	for _, ep := range p {
		rounds += float64(len(ep.steps))
		allocBytes += float64(ep.rt1.allocBytes - ep.rt0.allocBytes)
		allocObjects += float64(ep.rt1.allocObjects - ep.rt0.allocObjects)
		gcCPU += ep.rt1.gcCPU - ep.rt0.gcCPU
		totalCPU += ep.rt1.totalCPU - ep.rt0.totalCPU
		ctx += float64(ep.ctx1 - ep.ctx0)
		datagrams += float64(ep.udp1[0] - ep.udp0[0])
		rcvbuf += float64(ep.udp1[1] - ep.udp0[1])
		sched = addHistogramDelta(sched, ep.rt0.sched.Counts, ep.rt1.sched.Counts)
	}
	r.set("round.alloc_mb", allocBytes/1e6/rounds)
	r.set("round.allocs", allocObjects/rounds)
	r.set("round.gc_cpu_share", share(gcCPU, totalCPU))
	r.set("round.ctx_switches", ctx/rounds)
	r.set("round.sched_latency_p99_us", histogramP99(sched, buckets)*1e6)
	r.set("transport.datagrams_per_round", datagrams/rounds)
	r.set("transport.rcvbuf_errors", rcvbuf)
}
