// Package ps implements the synchronous parameter-server training loop of
// the paper (§3.1–3.2): the server broadcasts the model, every worker —
// honest or Byzantine — submits a gradient for the step, the configured GAR
// aggregates, and the optimizer applies the descent update.
//
// Two behaviours from the paper's systems contribution are modelled
// explicitly:
//
//   - Security mode. Vanilla TensorFlow lets any node execute operations
//     anywhere in the cluster, so a single Byzantine worker can overwrite
//     the shared parameters regardless of the GAR. Vanilla mode reproduces
//     that vulnerability; Patched mode (the paper's TensorFlow code patch:
//     "ps" jobs discard remote graph definitions/executions) refuses remote
//     writes.
//
//   - Bounded waiting. TensorFlow waits indefinitely for non-responding
//     nodes (incompatible with Byzantine workers); here the collection phase
//     simply proceeds with whatever gradients the links delivered, and a
//     round whose survivor count violates the GAR's requirement is skipped
//     rather than deadlocked.
package ps

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// SecurityMode selects whether the server accepts remote parameter writes.
type SecurityMode int

const (
	// Patched is the AggregaThor default: only gradient pushes accepted.
	Patched SecurityMode = iota
	// Vanilla reproduces the TensorFlow vulnerability: any worker may
	// overwrite the shared parameters.
	Vanilla
)

// ErrForbidden is returned by remote writes in Patched mode.
var ErrForbidden = errors.New("ps: remote parameter write forbidden (patched server)")

// WorkerConfig describes one worker node.
type WorkerConfig struct {
	// Sampler provides the worker's mini-batches (possibly corrupted —
	// the Figure 7 data-poisoning path).
	Sampler data.Sampler
	// Attack, when non-nil, makes the worker Byzantine at the gradient
	// level: it submits Attack.Forge(...) instead of its honest gradient.
	// Each worker needs its own instance (attack.New returns a fresh one):
	// Step runs the Byzantine workers' forges concurrently, and stateful
	// attacks such as stale keep per-instance history.
	Attack attack.Attack
	// HijackParams makes the worker attempt a remote parameter overwrite
	// every step (succeeds only against a Vanilla server).
	HijackParams bool
	// Silent makes the worker never submit a gradient (crash/withhold).
	Silent bool
	// Pipe is the data-plane link to the server; nil means a perfect
	// (TCP-like) link.
	Pipe transport.Pipe
	// Seed drives the worker's attack randomness.
	Seed int64
}

// Config assembles a training cluster.
type Config struct {
	// ModelFactory builds one network replica; called once for the server
	// and once per worker (in-graph replication: identical structure,
	// server-owned parameters).
	ModelFactory func() *nn.Network
	// Workers lists the n worker nodes.
	Workers []WorkerConfig
	// GAR is the gradient aggregation rule.
	GAR gar.GAR
	// Optimizer applies aggregated gradients (RMSProp lr=1e-3 in the
	// paper's evaluation).
	Optimizer opt.Optimizer
	// Batch is the per-worker mini-batch size.
	Batch int
	// Mode selects the security behaviour (Patched by default).
	Mode SecurityMode
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Seed is the run seed the deterministic schedules (SlowSeed) are keyed
	// on. Only consulted when Async is enabled.
	Seed int64
	// Async configures asynchronous bounded-staleness rounds; the zero
	// value is lockstep and leaves every code path byte-identical.
	Async AsyncConfig
}

// Cluster is an assembled synchronous training deployment.
type Cluster struct {
	cfg      Config
	server   *nn.Network // parameter authority + evaluation replica
	params   tensor.Vector
	replicas []*nn.Network
	rngs     []*rand.Rand
	ws       *gar.Workspace  // per-trainer aggregation scratch arena
	history  []tensor.Vector // model snapshots per round, ring of τ+1 (async)
	step     int
	hijacked bool
}

// StepResult reports one synchronous round. The three flags sit together so
// the struct is 80 bytes on 64-bit platforms, not 96: a caller recording
// every round keeps one per round.
type StepResult struct {
	// Step is the model-update index of this round (before increment).
	Step int
	// Loss is the mean training loss over honest workers this round.
	Loss float64
	// Received is how many gradients survived the links.
	Received int
	// Skipped is true when the round could not aggregate (too few
	// survivors for the GAR) and the model was left unchanged.
	Skipped bool
	// Hijacked is true when a Byzantine worker overwrote the parameters
	// this round (Vanilla mode only).
	Hijacked bool
	// BelowBound is true when the round was skipped because live
	// membership fell below the GAR's Byzantine safety bound (n_live <
	// MinWorkers, e.g. 2f+3 for Krum-family rules): the server refuses to
	// aggregate unsafely and leaves the model unchanged (Skipped is also
	// set).
	BelowBound bool
	// Stale counts slots settled this round from a stale-model submission:
	// on the lossy-model UDP backend, a worker whose broadcast was torn
	// trained on its last complete model and the server accepted the
	// resulting gradient into the current round (ModelRecoupStale).
	Stale int
	// AdmittedStale counts slots aggregated this round whose gradient was
	// computed against a model up to τ steps old, per the asynchronous
	// slow-worker schedule.
	AdmittedStale int
	// DroppedStale counts slots the asynchronous schedule dropped this
	// round because the scheduled lag exceeded the staleness bound τ; the
	// server never waits for (or recoups) these.
	DroppedStale int
	// Crashes counts workers the churn schedule crashed this round: each
	// received the broadcast, tore its sockets down without submitting,
	// and its slot was dropped (never awaited, never recouped).
	Crashes int
	// Rejoins counts workers re-admitted to the membership this round per
	// the churn schedule, after reconnecting through the backoff dialer.
	Rejoins int
	// ReconnectAttempts sums the dial attempts behind this round's
	// admitted rejoins. On the scheduled path every rejoin dials exactly
	// once, so this equals Rejoins.
	ReconnectAttempts int
}

// New validates the configuration and builds the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.ModelFactory == nil {
		return nil, errors.New("ps: ModelFactory is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("ps: at least one worker is required")
	}
	if cfg.GAR == nil {
		return nil, errors.New("ps: GAR is required")
	}
	if cfg.Optimizer == nil {
		return nil, errors.New("ps: Optimizer is required")
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("ps: batch size %d", cfg.Batch)
	}
	if info, ok := cfg.GAR.(gar.ByzantineInfo); ok {
		if len(cfg.Workers) < info.MinWorkers() {
			return nil, fmt.Errorf("ps: %s(f=%d) needs %d workers, got %d",
				cfg.GAR.Name(), info.F(), info.MinWorkers(), len(cfg.Workers))
		}
	}
	if err := cfg.Async.Validate(len(cfg.Workers)); err != nil {
		return nil, err
	}
	if cfg.Async.SlowRate > 0 {
		// An informed attack recomputes the honest workers' gradients from
		// the broadcast model, which assumes every peer trained fresh; a
		// slow schedule breaks that oracle, so the combination is rejected
		// (mirroring the informed × lossy-model-broadcast rule).
		for i, w := range cfg.Workers {
			if inf, ok := w.Attack.(attack.Informed); ok && inf.RequiresHonest() {
				return nil, fmt.Errorf("ps: attack %q on worker %d (SlowRate %v): %w",
					w.Attack.Name(), i, cfg.Async.SlowRate, ErrInformedSlow)
			}
		}
	}
	c := &Cluster{cfg: cfg, server: cfg.ModelFactory(), ws: gar.NewWorkspace()}
	if cfg.Async.Enabled() && cfg.Async.Staleness > 0 {
		c.history = make([]tensor.Vector, cfg.Async.Staleness+1)
	}
	c.params = c.server.ParamsVector()
	c.replicas = make([]*nn.Network, len(cfg.Workers))
	c.rngs = make([]*rand.Rand, len(cfg.Workers))
	for i, w := range cfg.Workers {
		if w.Sampler == nil && w.Attack == nil && !w.Silent {
			return nil, fmt.Errorf("ps: worker %d has no sampler and no attack", i)
		}
		c.replicas[i] = cfg.ModelFactory()
		if c.replicas[i].NumParams() != c.server.NumParams() {
			return nil, fmt.Errorf("ps: worker %d replica dimension %d != server %d",
				i, c.replicas[i].NumParams(), c.server.NumParams())
		}
		c.rngs[i] = rand.New(rand.NewSource(w.Seed + int64(i)*7919))
	}
	return c, nil
}

// Step runs one synchronous round.
func (c *Cluster) Step() (*StepResult, error) {
	n := len(c.cfg.Workers)
	res := &StepResult{Step: c.step}

	// Hijack phase: in Vanilla mode a Byzantine worker's remote write
	// lands before aggregation even starts (this is how the TensorFlow
	// distributed example shares parameters).
	for i, w := range c.cfg.Workers {
		if !w.HijackParams {
			continue
		}
		garbage := tensor.NewVector(c.params.Dim())
		for j := range garbage {
			garbage[j] = c.rngs[i].NormFloat64() * 1e3
		}
		if err := c.RemoteAssign(garbage); err == nil {
			res.Hijacked = true
		}
	}

	// Asynchronous schedule: resolve each worker's step tag for this round
	// (c.step = fresh, older = train on the retained model and submit with
	// that tag, -1 = the scheduled lag breaches τ and the worker sits the
	// round out) and retain the round's broadcast model so stale workers of
	// later rounds can train on it. Both sides of the socket backends
	// evaluate the same schedule, so this loop is the single source of truth
	// for which slots a round waits on.
	var expect []int
	if c.cfg.Async.Enabled() {
		expect = make([]int, n)
		for i := range expect {
			expect[i] = c.cfg.Async.ExpectedTag(c.cfg.Seed, c.step, i)
			if expect[i] < 0 {
				res.DroppedStale++
			}
		}
	}
	if len(c.history) > 0 {
		c.history[c.step%len(c.history)] = c.params.Clone()
	}

	// Broadcast + honest compute phase (parallel, one goroutine per
	// worker, each on its own replica).
	honest := make([]tensor.Vector, n)
	losses := make([]float64, n)
	hasLoss := make([]bool, n)
	var wg sync.WaitGroup
	for i := range c.cfg.Workers {
		w := &c.cfg.Workers[i]
		if w.Silent || w.Sampler == nil {
			continue
		}
		if expect != nil && expect[i] < 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replica := c.replicas[i]
			params := c.params
			if expect != nil && expect[i] < c.step {
				params = c.history[expect[i]%len(c.history)]
			}
			replica.SetParamsVector(params)
			x, y := c.cfg.Workers[i].Sampler.Sample(c.cfg.Batch)
			loss, grad := replica.Gradient(x, y)
			honest[i] = grad
			losses[i] = loss
			hasLoss[i] = true
		}(i)
	}
	wg.Wait()

	// Forge phase: Byzantine workers see every correct gradient (§3.1's
	// omniscient adversary) before crafting their submission.
	var correct []tensor.Vector
	for i, w := range c.cfg.Workers {
		if w.Attack == nil && honest[i] != nil {
			correct = append(correct, honest[i])
		}
	}
	byzCount := 0
	for _, w := range c.cfg.Workers {
		if w.Attack != nil {
			byzCount++
		}
	}
	// Each Byzantine worker forges in its own goroutine: attacks only read
	// the shared context slices, and each worker owns its attack instance
	// and RNG, so the forged vectors do not depend on the interleaving.
	tags := make([]int, n)
	forged := make([]tensor.Vector, n)
	for i := range c.cfg.Workers {
		w := &c.cfg.Workers[i]
		tags[i] = c.step
		if expect != nil {
			tags[i] = expect[i]
		}
		if w.Silent || tags[i] < 0 || w.Attack == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forged[i] = c.cfg.Workers[i].Attack.Forge(&attack.Context{
				Step:   tags[i],
				Honest: correct,
				Own:    honest[i],
				N:      n,
				F:      byzCount,
				Dim:    c.params.Dim(),
				Rng:    c.rngs[i],
			})
		}(i)
	}
	wg.Wait()
	submissions := make([]*transport.GradientMsg, n)
	for i := range c.cfg.Workers {
		w := &c.cfg.Workers[i]
		if w.Silent || tags[i] < 0 {
			continue
		}
		g := honest[i]
		if w.Attack != nil {
			g = forged[i]
		}
		if g == nil {
			continue
		}
		submissions[i] = &transport.GradientMsg{Worker: i, Step: tags[i], Grad: g}
	}

	// Collection phase: every submission traverses its link.
	var received []tensor.Vector
	for i, msg := range submissions {
		if msg == nil {
			continue
		}
		pipe := c.cfg.Workers[i].Pipe
		if pipe == nil {
			pipe = transport.PerfectPipe{}
		}
		out, ok := pipe.Transfer(msg)
		if !ok {
			continue
		}
		if out.Step < c.step {
			res.AdmittedStale++
		}
		received = append(received, out.Grad)
	}
	res.Received = len(received)

	// Mean honest loss (diagnostic only; Byzantine losses are excluded).
	var lossSum float64
	var lossN int
	for i := range losses {
		if hasLoss[i] && c.cfg.Workers[i].Attack == nil {
			lossSum += losses[i]
			lossN++
		}
	}
	if lossN > 0 {
		res.Loss = lossSum / float64(lossN)
	}

	// Quorum gate: an asynchronous round whose survivor count falls below
	// the scheduled quorum is skipped (the model is left unchanged) rather
	// than waited on — stragglers never gate the round.
	if c.cfg.Async.Enabled() && len(received) < c.cfg.Async.EffectiveQuorum(n) {
		res.Skipped = true
		c.step++
		return res, nil
	}

	// Aggregation + descent phase. The workspace-backed kernels reuse the
	// cluster's scratch arena, so the steady-state aggregation performs no
	// heap allocations; agg aliases the workspace and is consumed (applied
	// to the params) before the next round touches it.
	agg, err := gar.AggregateInto(c.ws, c.cfg.GAR, received)
	if err != nil {
		if errors.Is(err, gar.ErrTooFewWorkers) || errors.Is(err, gar.ErrNoGradients) {
			res.Skipped = true
			c.step++
			return res, nil
		}
		return nil, fmt.Errorf("ps: aggregation failed at step %d: %w", c.step, err)
	}
	opt.Regularize(agg, c.params, c.cfg.L1, c.cfg.L2)
	c.cfg.Optimizer.Step(c.step, c.params, agg)
	c.server.SetParamsVector(c.params)
	c.step++
	return res, nil
}

// RemoteAssign is the remote parameter-write RPC: a Vanilla server applies
// it (the TensorFlow vulnerability), a Patched server refuses.
func (c *Cluster) RemoteAssign(params tensor.Vector) error {
	if c.cfg.Mode != Vanilla {
		return ErrForbidden
	}
	if params.Dim() != c.params.Dim() {
		return fmt.Errorf("ps: remote assign dimension %d, want %d", params.Dim(), c.params.Dim())
	}
	copy(c.params, params)
	c.server.SetParamsVector(c.params)
	c.hijacked = true
	return nil
}

// Params returns a copy of the current model parameters.
func (c *Cluster) Params() tensor.Vector { return c.params.Clone() }

// SetParams overwrites the model parameters (checkpoint restore / warm
// start). Unlike RemoteAssign this is a local trusted-operator action and is
// permitted in any security mode.
func (c *Cluster) SetParams(v tensor.Vector) error {
	if v.Dim() != c.params.Dim() {
		return fmt.Errorf("ps: SetParams dimension %d, want %d", v.Dim(), c.params.Dim())
	}
	copy(c.params, v)
	c.server.SetParamsVector(c.params)
	return nil
}

// Model returns the server's evaluation replica, synchronised with the
// current parameters.
func (c *Cluster) Model() *nn.Network { return c.server }

// StepCount returns the number of rounds run so far.
func (c *Cluster) StepCount() int { return c.step }

// Hijacked reports whether any remote write has ever succeeded.
func (c *Cluster) Hijacked() bool { return c.hijacked }
