package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"aggregathor/internal/scenario"
	"aggregathor/internal/transport"
)

const campaignName = "campaign-smoke"

// campaignTask is the smoke campaign's model and batch (the features-mlp
// experiment at the spec's batch of 32), for the standalone layer calls.
var campaignTask = task{in: 24, hidden: 48, samples: 1200, batch: 32}

// campaignSpec is the built-in smoke campaign (32 cells: 4 GARs × 4 attack
// settings × {in-process, in-process lossy pipes} at n=11, 60 steps each)
// with the workload seed and one pool slot per CPU.
func campaignSpec(seed int64) scenario.Spec {
	s := scenario.SmokeSpec()
	s.Seeds = []int64{seed}
	s.Parallelism = runtime.NumCPU()
	return s
}

// campaignRun is one timed scenario.Execute of the full spec.
type campaignRun struct {
	wall    time.Duration
	json    []byte
	cells   int
	steps   int // Σ steps over cells
	updates int // Σ aggregated (non-skipped) rounds over cells
	errs    []error
	camp    *scenario.Campaign
}

func executeCampaign(s scenario.Spec) (*campaignRun, error) {
	t0 := time.Now()
	c, err := scenario.Execute(s)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return summariseCampaign(c, wall)
}

func summariseCampaign(c *scenario.Campaign, wall time.Duration) (*campaignRun, error) {
	raw, err := c.JSON()
	if err != nil {
		return nil, err
	}
	run := &campaignRun{wall: wall, json: raw, cells: len(c.Results), camp: c}
	for _, res := range c.Results {
		run.steps += c.Spec.Steps
		run.updates += c.Spec.Steps - res.SkippedRounds
		if res.Error != "" {
			run.errs = append(run.errs, fmt.Errorf("cell %s: %s", res.Run.ID, res.Error))
		}
	}
	return run, nil
}

// digest is the FNV-64a hash of the campaign JSON bytes.
func (c *campaignRun) digest() string {
	h := fnv.New64a()
	h.Write(c.json)
	return fmt.Sprintf("%016x", h.Sum64())
}

// stepMS is the campaign's pool time per step: wall × parallelism over the
// steps of every cell.
func (c *campaignRun) stepMS(parallelism int) float64 {
	return share(ms(c.wall)*float64(parallelism), float64(c.steps))
}

// cellSetupSeconds times the per-cell fixed cost a campaign pays: a one-cell,
// one-step spec through scenario.Execute (data and model generation,
// cluster construction, one round, one evaluation).
func cellSetupSeconds(s scenario.Spec) (float64, error) {
	one := oneCell(s, s.Expand()[0])
	one.Steps, one.EvalEvery = 1, 1
	t0 := time.Now()
	c, err := scenario.Execute(one)
	if err != nil {
		return 0, err
	}
	if e := c.Results[0].Error; e != "" {
		return 0, fmt.Errorf("set-up cell: %s", e)
	}
	return time.Since(t0).Seconds(), nil
}

// oneCell narrows the spec to a single expanded cell.
func oneCell(s scenario.Spec, r scenario.Run) scenario.Spec {
	s.GARs = []string{r.GAR}
	s.Attacks = []string{r.Attack}
	s.Clusters = []scenario.Cluster{r.Cluster}
	s.Networks = []scenario.Network{r.Network}
	s.Seeds = []int64{r.Seed}
	s.Parallelism = 1
	return s
}

// campaignSetups is how many per-cell set-ups setup_s takes the median of.
const campaignSetups = 5

// runCampaign runs the smoke campaign and returns its digest.
//
// Untraced, full campaigns run back to back for the budget. Traced, an
// untraced share of the budget is followed by the same cells run as
// one-cell specs on a pool of the same size, one span per cell; the cell
// results, reassembled in expansion order, must encode to the untraced
// campaign's JSON bytes.
func runCampaign(r *report, seed int64, budget time.Duration, rec *recorder) (string, error) {
	spec := campaignSpec(seed)
	par := spec.Parallelism
	if rec == nil {
		var setups []float64
		for i := 0; i < campaignSetups; i++ {
			s, err := cellSetupSeconds(spec)
			if err != nil {
				return "", err
			}
			setups = append(setups, s)
		}
		runs, err := campaignPhase(spec, budget)
		if err != nil {
			return "", err
		}
		want := runs[0].digest()
		accountCampaigns(r, runs, want)
		var stepTimes []float64
		var wall time.Duration
		var cells, updates int
		for _, c := range runs {
			stepTimes = append(stepTimes, c.stepMS(par))
			wall += c.wall
			cells += c.cells
			updates += c.updates
		}
		t, pct, ok := tail(stepTimes, tailMinBeyond)
		r.set("updates_per_s", share(float64(updates), wall.Seconds()))
		r.set("round_p50_ms", median(stepTimes))
		r.set("cells_per_s", share(float64(cells), wall.Seconds()))
		r.set("setup_s", median(setups))
		r.note("final loss %.6f (median over cells)", medianCellLoss(runs[0].camp))
		r.note("%d campaigns of %d cells; a round is one step of pool time (wall × %d slots / steps); round tail %.6f ms is %s",
			len(runs), runs[0].cells, par, t, tailLabel(pct, ok))
		return want, nil
	}

	rt0 := readRuntime()
	ctx0, _ := ctxSwitches() // 0 when /proc is unavailable
	runs, err := campaignPhase(spec, budget*2/5)
	if err != nil {
		return "", err
	}
	rt1 := readRuntime()
	ctx1, _ := ctxSwitches()
	want := runs[0].digest()
	accountCampaigns(r, runs, want)

	traced, err := tracedCells(spec, rec)
	if err != nil {
		return "", err
	}
	tracedWall := traced.wall
	accountCampaigns(r, []*campaignRun{traced}, want)

	var cellTimes []float64
	var cellSum time.Duration
	for _, s := range rec.spans {
		cellTimes = append(cellTimes, ms(s.dur()))
		cellSum += s.dur()
	}
	var campWall time.Duration
	var steps, updates int
	var stepTimes []float64
	for _, c := range runs {
		campWall += c.wall
		steps += c.steps
		updates += c.updates
		stepTimes = append(stepTimes, c.stepMS(par))
	}
	t, pct, ok := tail(stepTimes, tailMinBeyond)
	r.set("round.tail_ms", t)
	r.note("round.tail_ms is %s of %d campaigns' per-step pool time", tailLabel(pct, ok), len(stepTimes))
	medianWall := medianDuration(runs)
	r.set("scenario.cell_p50_ms", median(cellTimes))
	r.set("scenario.cell_max_ms", slices.Max(cellTimes))
	r.set("scenario.pool_busy_share", share(cellSum.Seconds(), float64(par)*medianWall.Seconds()))
	r.set("trace.overhead_share", 1-share(float64(traced.updates)/tracedWall.Seconds(), float64(updates)/campWall.Seconds()))
	r.set("round.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/1e6/float64(steps))
	r.set("round.allocs", float64(rt1.allocObjects-rt0.allocObjects)/float64(steps))
	r.set("round.gc_cpu_share", share(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	r.set("round.ctx_switches", float64(ctx1-ctx0)/float64(steps))
	r.set("round.sched_latency_p99_us",
		histogramP99(addHistogramDelta(nil, rt0.sched.Counts, rt1.sched.Counts), rt1.sched.Buckets)*1e6)
	var skipped, crashes, rejoins, reconnects, below int
	for _, res := range runs[0].camp.Results {
		skipped += res.SkippedRounds
		crashes += res.Crashes
		rejoins += res.Rejoins
		reconnects += res.ReconnectAttempts
		below += res.BelowBoundRounds
	}
	r.set("round.skipped", float64(skipped))
	r.set("churn.crashes", float64(crashes))
	r.set("churn.rejoins", float64(rejoins))
	r.set("churn.reconnect_attempts", float64(reconnects))
	r.set("churn.below_bound", float64(below))
	r.set("train.final_loss", medianCellLoss(runs[0].camp))
	// The campaign builds its own GARs, optimizers and pipes inside
	// scenario.Execute, where this benchmark cannot place a boundary.
	r.setZero("gar.ms_per_call", "gar.share", "gar.mb_per_s", "gar.allocs_per_call", "gar.calls",
		"opt.ms_per_call", "opt.share", "round.other_ms", "round.received", "round.drift",
		"transport.overhead_ms", "transport.datagrams_per_round", "transport.rcvbuf_errors")
	r.note("%d cells traced as one-cell specs on %d slots in %.3f s; untraced campaign median %.3f s",
		len(cellTimes), par, tracedWall.Seconds(), medianWall.Seconds())
	return want, standaloneLayers(r, campaignTask, transport.Codec{}, seed)
}

// campaignPhase runs full campaigns until the budget is spent, at least one.
func campaignPhase(spec scenario.Spec, budget time.Duration) ([]*campaignRun, error) {
	var runs []*campaignRun
	deadline := time.Now().Add(budget)
	for len(runs) == 0 || time.Now().Before(deadline) {
		c, err := executeCampaign(spec)
		if err != nil {
			return nil, err
		}
		runs = append(runs, c)
	}
	return runs, nil
}

// accountCampaigns counts every cell and every campaign as an operation;
// cells with Error set and campaigns whose digest is not want fail.
func accountCampaigns(r *report, runs []*campaignRun, want string) {
	for i, c := range runs {
		r.attempted += c.cells + 1
		r.fail(len(c.errs), c.errs...)
		if d := c.digest(); d != want {
			r.fail(1, fmt.Errorf("campaign %d digest %s, want %s", i, d, want))
		}
	}
}

// tracedCells runs every cell of the spec as a one-cell spec on a pool of
// spec.Parallelism goroutines, recording one "cell" span per cell (the cell
// index is the trace id), and reassembles the campaign.
func tracedCells(spec scenario.Spec, rec *recorder) (*campaignRun, error) {
	runs := spec.Expand()
	results := make([]scenario.Result, len(runs))
	errs := make([]error, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < spec.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := rec.now()
				c, err := scenario.Execute(oneCell(spec, runs[i]))
				rec.add(span{Name: "cell", Trace: i, Parent: -1, Start: start, End: rec.now()})
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = c.Results[0]
				results[i].Run.Index = runs[i].Index
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Execute echoes the spec without its pool size; so does the reassembly.
	spec.Parallelism = 0
	return summariseCampaign(&scenario.Campaign{Spec: spec, Results: results}, time.Since(t0))
}

// medianCellLoss is the median of the cells' final training losses (the
// average rule diverges under some attacks, so a mean would follow those
// cells alone).
func medianCellLoss(c *scenario.Campaign) float64 {
	losses := make([]float64, 0, len(c.Results))
	for _, res := range c.Results {
		losses = append(losses, res.FinalLoss)
	}
	return median(losses)
}

func medianDuration(runs []*campaignRun) time.Duration {
	walls := make([]float64, len(runs))
	for i, c := range runs {
		walls[i] = float64(c.wall)
	}
	return time.Duration(median(walls))
}
