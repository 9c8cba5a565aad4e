package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

// episode is one fixed-length training run: set-up, `rounds` closed-loop
// Steps, and the digest of what it produced.
type episode struct {
	setup   time.Duration // data and model generation, constructor, Start
	wall    time.Duration // set-up through Close
	steps   []float64     // wall time of every Step call, ms, failures included
	results []ps.StepResult
	failed  int // Step errors, rounds that reached the round deadline, a failed Close
	errs    []error
	digest  string

	// Counters read just before the first Step and just after the last.
	rt0, rt1   runtimeSample
	ctx0, ctx1 int64
	udp0, udp1 [2]int64 // OutDatagrams, RcvbufErrors
}

// runEpisode builds the deployment and drives it for w.rounds rounds. A Step
// error ends the episode (the deployment is no longer trustworthy); it is
// counted, not returned. Only a set-up failure is returned.
func runEpisode(w *roundWorkload, start func(*roundWorkload, int64, boundaries) (trainer, error), seed int64, b boundaries) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	tr, err := start(w, seed, b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep.setup = time.Since(t0)
	probe(&ep.rt0, &ep.ctx0, &ep.udp0)
	for i := 0; i < w.rounds; i++ {
		if b.rec != nil {
			b.rec.beginRound(i)
		}
		s := time.Now()
		res, err := tr.Step()
		d := time.Since(s)
		if b.rec != nil {
			b.rec.endRound()
		}
		ep.steps = append(ep.steps, ms(d))
		if err != nil {
			ep.failed++
			ep.errs = append(ep.errs, fmt.Errorf("round %d: %w", i, err))
			break
		}
		if w.roundTimeout > 0 && d >= w.roundTimeout {
			ep.failed++
			ep.errs = append(ep.errs, fmt.Errorf("round %d reached the %v round deadline", i, w.roundTimeout))
		}
		ep.results = append(ep.results, *res)
	}
	probe(&ep.rt1, &ep.ctx1, &ep.udp1)
	ep.digest = roundDigest(tr.Params(), ep.results)
	if err := tr.Close(); err != nil {
		ep.failed++
		ep.errs = append(ep.errs, fmt.Errorf("close: %w", err))
	}
	ep.wall = time.Since(t0)
	return ep, nil
}

// probe reads the counters an episode reports as per-round deltas.
func probe(rt *runtimeSample, ctx *int64, udp *[2]int64) {
	*rt = readRuntime()
	*ctx, _ = ctxSwitches()           // 0 when /proc is unavailable
	udp[0], udp[1], _ = udpCounters() // likewise
}

// counts sums the StepResult counters of one episode. They are pure
// functions of the seed, so they repeat exactly across episodes and runs.
type counts struct {
	rounds, received, skipped, stale, admittedStale, droppedStale int
	crashes, rejoins, reconnectAttempts, belowBound, hijacked     int
}

func sumCounts(results []ps.StepResult) counts {
	var c counts
	for _, r := range results {
		c.rounds++
		c.received += r.Received
		c.stale += r.Stale
		c.admittedStale += r.AdmittedStale
		c.droppedStale += r.DroppedStale
		c.crashes += r.Crashes
		c.rejoins += r.Rejoins
		c.reconnectAttempts += r.ReconnectAttempts
		if r.Skipped {
			c.skipped++
		}
		if r.BelowBound {
			c.belowBound++
		}
		if r.Hijacked {
			c.hijacked++
		}
	}
	return c
}

// roundDigest is the FNV-64a hash of the final parameter bits followed by
// the episode's StepResult counter sums.
func roundDigest(params tensor.Vector, results []ps.StepResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	c := sumCounts(results)
	for _, v := range []int{c.rounds, c.received, c.skipped, c.stale, c.admittedStale, c.droppedStale,
		c.crashes, c.rejoins, c.reconnectAttempts, c.belowBound, c.hijacked} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// finalLoss is the mean honest training loss over the last tenth of the
// rounds (at least one round).
func finalLoss(results []ps.StepResult) float64 {
	if len(results) == 0 {
		return math.NaN()
	}
	k := max(1, len(results)/10)
	var s float64
	for _, r := range results[len(results)-k:] {
		s += r.Loss
	}
	return s / float64(k)
}

// phase is a sequence of episodes run under one set of boundaries.
type phase []*episode

// runPhase runs episodes until the budget is spent, at least minEpisodes.
func runPhase(w *roundWorkload, seed int64, b boundaries, budget time.Duration, minEpisodes int) (phase, error) {
	var p phase
	deadline := time.Now().Add(budget)
	for len(p) < minEpisodes || time.Now().Before(deadline) {
		ep, err := runEpisode(w, w.start, seed, b)
		if err != nil {
			return nil, err
		}
		p = append(p, ep)
	}
	return p, nil
}

func (p phase) steps() []float64 {
	var s []float64
	for _, ep := range p {
		s = append(s, ep.steps...)
	}
	return s
}

// updatesPerSec is aggregated (non-skipped) rounds per second of Step time.
func (p phase) updatesPerSec() float64 {
	var updates int
	var stepMS float64
	for _, ep := range p {
		c := sumCounts(ep.results)
		updates += c.rounds - c.skipped
		stepMS += sum(ep.steps)
	}
	return share(float64(updates), stepMS/1e3)
}

// drift is the round p50 over the last tenth of each episode's rounds over
// the round p50 over the first tenth, pooled across episodes.
func (p phase) drift() float64 {
	var first, last []float64
	for _, ep := range p {
		k := max(1, len(ep.steps)/10)
		first = append(first, ep.steps[:k]...)
		last = append(last, ep.steps[len(ep.steps)-k:]...)
	}
	return share(median(last), median(first))
}

// check returns the number of episodes whose output is wrong — a digest
// other than want, or training that made no progress (final loss not below
// the first round's) — plus one error per failure, Step failures included.
func (p phase) check(want string) (wrong int, errs []error) {
	for i, ep := range p {
		errs = append(errs, ep.errs...)
		if ep.digest != want {
			wrong++
			errs = append(errs, fmt.Errorf("episode %d digest %s, want %s", i, ep.digest, want))
		} else if len(ep.results) > 0 && !(finalLoss(ep.results) < ep.results[0].Loss) {
			wrong++
			errs = append(errs, fmt.Errorf("episode %d final loss %v is not below the first round's %v",
				i, finalLoss(ep.results), ep.results[0].Loss))
		}
	}
	return wrong, errs
}

// attempted counts the phase's operations: every Step called and every
// episode (a run whose digest is checked).
func (p phase) attempted() (attempted, failed int) {
	for _, ep := range p {
		attempted += len(ep.steps) + 1
		failed += ep.failed
	}
	return attempted, failed
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func (p phase) endToEnd(r *report) {
	steps := p.steps()
	var setups []float64
	var wall time.Duration
	for _, ep := range p {
		setups = append(setups, ep.setup.Seconds())
		wall += ep.wall
	}
	t, pct, ok := tail(steps, tailMinBeyond)
	r.set("updates_per_s", p.updatesPerSec())
	r.set("round_p50_ms", median(steps))
	r.set("cells_per_s", share(float64(len(p)), wall.Seconds()))
	r.set("setup_s", median(setups))
	r.note("final loss %.6f (mean honest loss over the last tenth of an episode)", finalLoss(p[0].results))
	r.note("rounds timed: %d in %d episodes; round tail %.6f ms is %s; setup_s is the median of %d set-ups",
		len(steps), len(p), t, tailLabel(pct, ok), len(setups))
}

func tailLabel(pct float64, ok bool) string {
	if !ok {
		return "the maximum (fewer than 11 samples)"
	}
	return fmt.Sprintf("p%.1f", pct)
}
