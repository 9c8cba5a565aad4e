package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// UDPClusterConfig describes a socket-distributed synchronous deployment
// whose gradients travel real UDP datagrams — the lossyMPI deployment of
// §3.3: one parameter server, n worker goroutines, every gradient chunked
// into MTU-sized packets, and an artificial per-packet drop schedule standing
// in for the paper's tc-based loss injection. Lost coordinates are recouped
// by the configured policy and absorbed by the Byzantine-resilient GAR
// upstairs, which is the paper's headline systems bet.
type UDPClusterConfig struct {
	// Addr is the server's gradient-endpoint bind address ("127.0.0.1:0"
	// picks a free port). Each worker additionally binds its own model
	// endpoint on a kernel-chosen port.
	Addr string
	// WorkerBindHost, when set, is the host each worker binds its model
	// endpoint on. When empty the host is derived from the worker's
	// gradient-dial interface toward Addr — the interface that can reach the
	// server can be reached by it — instead of the hardcoded loopback the
	// backend used to pin, which silently confined deployments to one host.
	WorkerBindHost string
	// ModelFactory builds the network replicas.
	ModelFactory func() *nn.Network
	// Workers is n.
	Workers int
	// GAR aggregates each round.
	GAR gar.GAR
	// Optimizer applies updates.
	Optimizer opt.Optimizer
	// Batch is the per-worker mini-batch.
	Batch int
	// Train provides worker samplers.
	Train *data.Dataset
	// Codec selects the wire coordinate width (zero value = lossless
	// float64, which is what the bit-for-bit parity guarantee needs).
	Codec transport.Codec
	// MTU is the datagram payload budget; zero means transport.DefaultMTU.
	MTU int
	// RoundTimeout bounds the collection phase. Zero means 30 seconds. With
	// artificial loss the deadline almost never fires: the drop schedule is
	// a shared pure function of (seed, step, worker), so the server knows
	// exactly which packets will never arrive and recoups a slot the moment
	// its surviving packets are all in. The timeout only pays for genuinely
	// unresponsive workers, as on the TCP backend.
	RoundTimeout time.Duration
	// DropRate is the per-packet artificial loss probability in [0, 1),
	// applied to worker→server gradient datagrams. Which packets drop is
	// decided by udpDropSchedule — keyed on (Seed, step, worker), never on
	// a per-sender stream — so lossy rounds are deterministic by
	// construction.
	DropRate float64
	// ModelDropRate is the per-packet artificial loss probability in
	// [0, 1) on server→worker model broadcasts — footnote 12's unreliable
	// model channel. Which packets drop is decided by modelDropSchedule
	// (keyed on ps.ModelDropSeed(Seed, step, worker)) evaluated at BOTH
	// endpoints: the server drops before the write, and the worker knows
	// exactly which model packets can never arrive, settling a torn
	// broadcast the moment its survivors are in — no deadline. At 0 the
	// model channel is loss-free and rounds are bit-identical to the
	// pre-lossy-model behaviour.
	ModelDropRate float64
	// ModelRecoup selects the worker-side policy for a torn model
	// broadcast: ModelRecoupSkip (default) consumes the survivors and
	// submits nothing for the round (the server, evaluating the same
	// schedule, recoups the slot without waiting); ModelRecoupStale trains
	// on the worker's last complete model and submits a gradient tagged
	// with that stale step, which the server accepts into the current
	// round — the staleness regime a Byzantine-resilient GAR must absorb.
	ModelRecoup ModelRecoupPolicy
	// Recoup selects the policy for coordinates lost in flight and for
	// slots that miss the round deadline: DropGradient (default) discards
	// the gradient, FillNaN marks lost coordinates NaN (the GAR must
	// contain them), FillRandom substitutes seed-derived random values —
	// the AggregaThor way. All three are deterministic functions of
	// (Seed, step, worker id).
	Recoup transport.RecoupPolicy
	// Byzantine maps worker ids to attack names (same semantics as the TCP
	// backend; omniscient attacks recompute honest peers from the shared
	// seed).
	Byzantine map[int]string
	// Unresponsive marks worker ids that receive broadcasts but never
	// submit a gradient.
	Unresponsive map[int]bool
	// Seed is the run seed; sampler, attack, drop-schedule and recoup
	// randomness all derive from it through the shared ps formulas.
	Seed int64
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Async configures asynchronous bounded-staleness rounds. The slow
	// schedule is evaluated at both endpoints (ps.SlowSeed), so the server
	// knows which step tag every slot will carry — a round settles the
	// moment the scheduled quorum is in, with no deadline involved. Async
	// rounds require a loss-free model channel (ModelDropRate 0): the
	// staleness regime is driven by the slow schedule, not by torn
	// broadcasts, so an expected tag of -1 unambiguously means a scheduled
	// drop that must never be recouped.
	Async ps.AsyncConfig
	// Churn configures the deterministic worker crash/rejoin schedule
	// (ps.ChurnSeed, evaluated at both endpoints): a crashing worker closes
	// its gradient sender abruptly and re-dials through the bounded backoff
	// ladder at its scheduled rejoin round; the server, replaying the same
	// schedule, drops crashed/down slots without waiting and skips rounds
	// whose live membership falls under the GAR's safety bound. Churn
	// requires a loss-free model channel (ModelDropRate 0) and is
	// incompatible with asynchronous rounds and unresponsive workers.
	Churn ps.ChurnConfig
}

// ModelRecoupPolicy selects what a worker does about a torn model broadcast
// (some packets scheduled to drop on the downlink).
type ModelRecoupPolicy int

const (
	// ModelRecoupSkip consumes the surviving packets and submits nothing
	// for the round. The server, evaluating the same schedule, knows not
	// to wait and recoups the slot per the gradient Recoup policy.
	ModelRecoupSkip ModelRecoupPolicy = iota
	// ModelRecoupStale trains on the last complete model the worker holds
	// and submits a gradient tagged with that stale step; the server
	// accepts it into the current round.
	ModelRecoupStale
)

// String implements fmt.Stringer.
func (p ModelRecoupPolicy) String() string {
	switch p {
	case ModelRecoupSkip:
		return "skip"
	case ModelRecoupStale:
		return "stale"
	default:
		return fmt.Sprintf("ModelRecoupPolicy(%d)", int(p))
	}
}

// udpWorkerIdleTimeout bounds a worker's wait for the next model broadcast.
// The normal exit path is the server closing the worker's model socket; the
// timeout is a backstop against a server that vanished without Close.
const udpWorkerIdleTimeout = time.Hour

// udpPaceBurst/udpPaceDelay rate-limit every cluster sender: after each
// 128 KB of datagram payload the sender sleeps 1 ms so the receiver drains
// its kernel buffer. At the paper scale (d = 1.75M ≈ 14 MB of datagrams per
// transfer) an unpaced burst overflows any realistic SO_RCVBUF and the
// kernel silently discards the excess — the wedge the bounded broadcast
// wait then has to clean up. Pacing changes timing only, never content.
const (
	udpPaceBurst = 128 << 10
	udpPaceDelay = time.Millisecond
)

// UDPCluster is a running lossy-datagram deployment that implements
// ps.Trainer: Start binds the sockets and launches the workers, then each
// Step broadcasts the model, collects id-slotted gradients packet by packet
// through the transport reassembler, recoups scheduled losses per the
// policy, aggregates and applies the optimizer.
type UDPCluster struct {
	cfg          UDPClusterConfig
	recv         *transport.UDPReceiver   // gradient endpoint (server)
	modelRecvs   []*transport.UDPReceiver // per-worker model endpoints
	modelSenders []*transport.UDPSender   // server → worker model channels
	gradSenders  []*transport.UDPSender   // worker → server gradient channels
	gradMu       sync.Mutex               // guards gradSenders slots (churn re-dials swap them)
	workerWG     sync.WaitGroup
	workerErrs   chan error

	// membership replays the churn schedule server-side (nil without churn):
	// phases per round, scheduled-rejoin admissions, and the crash/rejoin
	// counters that flow into StepResult.
	membership *ps.MembershipTracker

	server *nn.Network
	params tensor.Vector
	ws     *gar.Workspace // per-cluster aggregation scratch arena
	step   int
	// modelPktScratch is the broadcast split scratch, reused every round.
	modelPktScratch []transport.Packet

	// suspected marks workers that missed a round deadline and are no
	// longer waited for (a completed gradient for the current step
	// re-admits them).
	suspected map[int]bool

	// lastComplete tracks, per worker, the last step whose model broadcast
	// was scheduled loss-free end to end (-1 before the first one). The
	// worker tracks the same quantity from the same schedule, which is how
	// the server knows the exact step a stale submission will be tagged
	// with. The counters can transiently diverge outside the deterministic
	// contract — a genuine kernel drop makes the worker record a scheduled-
	// complete broadcast as lost — in which case the worker's submissions
	// are filtered (wrong tag) and its slots recouped until the next fully
	// delivered complete broadcast resynchronises both sides; sender pacing
	// keeps that window rare.
	lastComplete []int

	started bool
	closed  bool
}

var _ ps.Trainer = (*UDPCluster)(nil)

// NewUDPCluster validates the configuration and builds the (not yet
// listening) cluster.
func NewUDPCluster(cfg UDPClusterConfig) (*UDPCluster, error) {
	if cfg.ModelFactory == nil || cfg.GAR == nil || cfg.Optimizer == nil || cfg.Train == nil {
		return nil, errors.New("cluster: UDPCluster config missing required field")
	}
	if cfg.Workers <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("cluster: bad sizes workers=%d batch=%d", cfg.Workers, cfg.Batch)
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("cluster: drop rate %v out of [0,1)", cfg.DropRate)
	}
	if cfg.ModelDropRate < 0 || cfg.ModelDropRate >= 1 {
		return nil, fmt.Errorf("cluster: model drop rate %v out of [0,1)", cfg.ModelDropRate)
	}
	if cfg.ModelRecoup != ModelRecoupSkip && cfg.ModelRecoup != ModelRecoupStale {
		return nil, fmt.Errorf("cluster: unknown model recoup policy %v", cfg.ModelRecoup)
	}
	if cfg.MTU == 0 {
		cfg.MTU = transport.DefaultMTU
	}
	// Lower bound first: an MTU below header+one-coordinate would make
	// CoordsPerPacket clamp to 1 and every datagram silently exceed the
	// configured budget.
	if cfg.MTU < cfg.Codec.MinMTU() || cfg.MTU > 65507 {
		return nil, fmt.Errorf("cluster: mtu %d outside [%d, 65507]", cfg.MTU, cfg.Codec.MinMTU())
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 30 * time.Second
	}
	if info, ok := cfg.GAR.(gar.ByzantineInfo); ok {
		if cfg.Workers < info.MinWorkers() {
			return nil, fmt.Errorf("cluster: %s(f=%d) needs %d workers, got %d",
				cfg.GAR.Name(), info.F(), info.MinWorkers(), cfg.Workers)
		}
	}
	for _, id := range sortedIDs(cfg.Byzantine) {
		name := cfg.Byzantine[id]
		if id < 0 || id >= cfg.Workers {
			return nil, fmt.Errorf("cluster: Byzantine worker id %d outside [0, %d)", id, cfg.Workers)
		}
		atk, err := attack.New(name)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", id, err)
		}
		// The omniscient oracle recomputes honest gradients from the shared
		// seed, which assumes every honest worker samples once per round on
		// the broadcast model. Lossy model broadcasts break that: each
		// honest worker follows its own downlink schedule and may skip a
		// round or train on a stale model, so an informed attack would
		// silently forge from wrong oracles. Reject the combination.
		if inf, ok := atk.(attack.Informed); ok && inf.RequiresHonest() && cfg.ModelDropRate > 0 {
			return nil, fmt.Errorf("cluster: informed attack %q (ModelDropRate %v): %w", name, cfg.ModelDropRate, ps.ErrInformedModelLoss)
		}
	}
	for _, id := range sortedIDs(cfg.Unresponsive) {
		if id < 0 || id >= cfg.Workers {
			return nil, fmt.Errorf("cluster: unresponsive worker id %d outside [0, %d)", id, cfg.Workers)
		}
	}
	if err := cfg.Async.Validate(cfg.Workers); err != nil {
		return nil, err
	}
	if err := rejectInformedWithSlow(cfg.Byzantine, cfg.Async); err != nil {
		return nil, err
	}
	if cfg.Async.Enabled() && cfg.ModelDropRate > 0 {
		return nil, fmt.Errorf("cluster: %w (ModelDropRate %v)", ps.ErrAsyncModelLoss, cfg.ModelDropRate)
	}
	if err := cfg.Churn.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Churn.Enabled() {
		if cfg.Async.Enabled() {
			return nil, fmt.Errorf("cluster: %w (quorum %d with churn rate %v)",
				ps.ErrChurnAsync, cfg.Async.EffectiveQuorum(cfg.Workers), cfg.Churn.Rate)
		}
		if cfg.ModelDropRate > 0 {
			return nil, fmt.Errorf("cluster: %w (ModelDropRate %v with churn rate %v)",
				ps.ErrChurnModelLoss, cfg.ModelDropRate, cfg.Churn.Rate)
		}
		if ids := sortedIDs(cfg.Unresponsive); len(ids) > 0 {
			return nil, fmt.Errorf("cluster: unresponsive worker %d cannot follow a churn schedule (rate %v): it would neither crash nor rejoin on cue",
				ids[0], cfg.Churn.Rate)
		}
		if err := rejectInformedWithChurn(cfg.Byzantine, cfg.Churn); err != nil {
			return nil, err
		}
	}
	c := &UDPCluster{
		cfg:          cfg,
		server:       cfg.ModelFactory(),
		workerErrs:   make(chan error, cfg.Workers),
		suspected:    map[int]bool{},
		lastComplete: make([]int, cfg.Workers),
		ws:           gar.NewWorkspace(),
	}
	for i := range c.lastComplete {
		c.lastComplete[i] = -1
	}
	if cfg.Churn.Enabled() {
		c.membership = ps.NewMembershipTracker(cfg.Churn, cfg.Seed, cfg.Workers)
	}
	c.params = c.server.ParamsVector()
	return c, nil
}

// setGradSender swaps worker id's gradient-sender slot — nil while the churn
// schedule holds the worker down, a fresh backoff-dialled sender on rejoin —
// so Close releases whichever socket the worker last held.
func (c *UDPCluster) setGradSender(id int, s *transport.UDPSender) {
	c.gradMu.Lock()
	defer c.gradMu.Unlock()
	c.gradSenders[id] = s
}

// workerSpec extracts the backend-independent worker description (shared
// with the TCP backend — see worker.go).
func (cfg *UDPClusterConfig) workerSpec() workerSpec {
	return workerSpec{
		ModelFactory: cfg.ModelFactory,
		Train:        cfg.Train,
		Batch:        cfg.Batch,
		Workers:      cfg.Workers,
		Byzantine:    cfg.Byzantine,
		Unresponsive: cfg.Unresponsive,
		Seed:         cfg.Seed,
		Async:        cfg.Async,
	}
}

// udpDropSchedule returns the artificial-loss mask for the count packets of
// worker's gradient at step: mask[i] is true when packet i is dropped before
// the socket write. The mask is a pure function of (seed, step, worker) —
// both endpoints evaluate it, the worker to drop and the server to know
// which packets will never arrive — which is what makes lossy rounds
// deterministic (byte-identical campaign JSON at any drop rate) and
// deadline-free (a slot is recouped the moment its surviving packets are all
// in, not when a timer fires).
func udpDropSchedule(seed int64, step, worker, count int, rate float64) []bool {
	return scheduleMask(ps.DropSeed(seed, step, worker), count, rate)
}

// modelDropSchedule is udpDropSchedule's downlink twin: the artificial-loss
// mask for the count packets of the model broadcast to worker at step,
// keyed on ps.ModelDropSeed so both endpoints can evaluate it — the server
// to drop before the write, the worker to settle a torn broadcast the
// moment its scheduled survivors are in (footnote 12's unreliable model
// channel, made deterministic and deadline-free the same way the uplink
// was).
func modelDropSchedule(seed int64, step, worker, count int, rate float64) []bool {
	return scheduleMask(ps.ModelDropSeed(seed, step, worker), count, rate)
}

// scheduleMask draws one deterministic drop mask from a derived seed — the
// single implementation behind both drop schedules, so uplink and downlink
// loss semantics can never drift apart.
func scheduleMask(seed int64, count int, rate float64) []bool {
	mask := make([]bool, count)
	if rate <= 0 {
		return mask
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range mask {
		mask[i] = rng.Float64() < rate
	}
	return mask
}

// Start binds the server's gradient endpoint and one model endpoint per
// worker, then launches the worker goroutines. It must be called exactly
// once before Step.
func (c *UDPCluster) Start() error {
	if c.started {
		return errors.New("cluster: Start called twice")
	}
	if c.closed {
		return errors.New("cluster: Start after Close")
	}
	recv, err := transport.ListenUDP(c.cfg.Addr, c.cfg.Codec, c.cfg.Recoup, c.cfg.Seed)
	if err != nil {
		return err
	}
	c.recv = recv
	// The deployment's exact dimension is known: pin it, so a spoofed
	// header can neither allocate beyond it nor evict a pending partial.
	recv.Reassembler().SetExpectDim(c.params.Dim())
	bindHost := c.cfg.WorkerBindHost
	for id := 0; id < c.cfg.Workers; id++ {
		// Gradient loss is injected by the shared schedule, not the
		// sender's own rng: drop rate 0 on the sender. Dialled first so the
		// worker's model endpoint can bind the same interface the kernel
		// routes toward the server — the old hardcoded "127.0.0.1:0" bind
		// silently confined the backend to one host.
		//aggrevet:lineage drop rate 0: the sender's rng is never drawn, loss comes from the shared seeded schedule
		gsend, err := transport.DialUDP(recv.Addr(), c.cfg.Codec, c.cfg.MTU, 0, 0)
		if err != nil {
			c.abortStart()
			return err
		}
		gsend.SetPacing(udpPaceBurst, udpPaceDelay)
		c.gradSenders = append(c.gradSenders, gsend)
		if bindHost == "" {
			host, _, err := net.SplitHostPort(gsend.LocalAddr())
			if err != nil {
				c.abortStart()
				return fmt.Errorf("cluster: derive worker bind host from %q: %w", gsend.LocalAddr(), err)
			}
			bindHost = host
		}
		//aggrevet:lineage drop rate 0: the receiver's rng is never drawn, loss comes from the shared seeded schedule
		mrecv, err := transport.ListenUDP(net.JoinHostPort(bindHost, "0"), c.cfg.Codec, transport.DropGradient, 0)
		if err != nil {
			c.abortStart()
			return err
		}
		mrecv.Reassembler().SetExpectDim(c.params.Dim())
		c.modelRecvs = append(c.modelRecvs, mrecv)
		// Model loss is injected by the shared modelDropSchedule, not the
		// sender's own rng: drop rate 0 on the sender.
		//aggrevet:lineage drop rate 0: the sender's rng is never drawn, model loss comes from the shared seeded schedule
		msend, err := transport.DialUDP(mrecv.Addr(), c.cfg.Codec, c.cfg.MTU, 0, 0)
		if err != nil {
			c.abortStart()
			return err
		}
		msend.SetPacing(udpPaceBurst, udpPaceDelay)
		c.modelSenders = append(c.modelSenders, msend)
	}
	workers := make([]*clusterWorker, c.cfg.Workers)
	for id := 0; id < c.cfg.Workers; id++ {
		w, err := newClusterWorker(id, c.cfg.workerSpec())
		if err != nil {
			c.abortStart()
			return err
		}
		workers[id] = w
	}
	dim := c.params.Dim()
	for id := 0; id < c.cfg.Workers; id++ {
		c.workerWG.Add(1)
		go func(id int) {
			defer c.workerWG.Done()
			if err := c.runWorker(workers[id], c.modelRecvs[id], c.gradSenders[id], dim); err != nil {
				c.workerErrs <- fmt.Errorf("worker %d: %w", id, err)
			}
		}(id)
	}
	c.started = true
	return nil
}

// abortStart releases every socket a failed Start opened. No worker
// goroutine has launched yet when it runs, so there is nothing to wait for.
func (c *UDPCluster) abortStart() {
	c.closed = true
	for _, s := range c.gradSenders {
		s.Close()
	}
	for _, s := range c.modelSenders {
		s.Close()
	}
	for _, r := range c.modelRecvs {
		r.Close()
	}
	c.recv.Close()
}

// runWorker is the worker main loop: model broadcasts in (possibly torn by
// the shared downlink schedule), scheduled-loss gradient datagrams out,
// until the server closes the model socket. dim is the deployment's model
// dimension, read once under Start so the goroutine never touches the
// server's live parameter vector.
func (c *UDPCluster) runWorker(w *clusterWorker, mrecv *transport.UDPReceiver, send *transport.UDPSender, dim int) error {
	pktCount := c.cfg.Codec.PacketsPerTransfer(dim, c.cfg.MTU)
	// One memoised churn timeline serves both the collector's schedule,
	// which queries ahead of the loop, and the loop itself. Both run on
	// this goroutine.
	churn := c.cfg.Churn.Timeline(c.cfg.Seed, w.id)
	var schedule func(step int) []bool
	if c.cfg.ModelDropRate > 0 {
		schedule = func(step int) []bool {
			return modelDropSchedule(c.cfg.Seed, step, w.id, pktCount, c.cfg.ModelDropRate)
		}
	}
	if c.cfg.Churn.Enabled() {
		// The server never broadcasts to a down worker, and the worker
		// replays the same schedule — so down steps are fully-scheduled-away
		// broadcasts the collector skips silently. Without this the collector
		// would stash the rejoin broadcast as a future step and sit out the
		// whole BroadcastTimeout waiting for a down-step broadcast that by
		// construction never comes. Only BOUNDED downtime is scheduled away:
		// a permanently-down worker's phase is ChurnDown for every later
		// step, and skipping those would spin the collector's advance loop
		// forever instead of letting the worker exit on its final crash
		// event. (Churn composes with gradient loss only; the churn ×
		// model-loss guard keeps ModelDropRate at zero here.)
		allDropped := make([]bool, pktCount)
		for i := range allDropped {
			allDropped[i] = true
		}
		schedule = func(step int) []bool {
			if churn.Phase(step) == ps.ChurnDown && !churn.Permanent(step) {
				return allDropped
			}
			return nil
		}
	}
	col := transport.NewModelCollector(mrecv, transport.ModelCollectorConfig{
		Dim:              dim,
		MTU:              c.cfg.MTU,
		Codec:            c.cfg.Codec,
		Schedule:         schedule,
		BroadcastTimeout: c.cfg.RoundTimeout,
		IdleTimeout:      udpWorkerIdleTimeout,
	})
	lastStep := -1 // last complete model held (mirrors the server's lastComplete)
	var lastParams tensor.Vector
	var pktScratch []transport.Packet // split scratch, reused every round
	for {
		ev, err := col.Next()
		if err != nil {
			return nil // socket closed by the server (or idle timeout): termination
		}
		if c.cfg.Churn.Enabled() {
			switch churn.Phase(ev.Step) {
			case ps.ChurnCrash:
				// Scheduled crash: tear the gradient sender down abruptly,
				// submitting nothing. The model endpoint stays bound — it is
				// the worker's stable address — but the server, replaying
				// the same schedule, stops broadcasting to it while down.
				send.Close()
				send = nil
				c.setGradSender(w.id, nil)
				if churn.Permanent(ev.Step) {
					return nil // rejoin budget exhausted: gone for good
				}
				continue
			case ps.ChurnDown:
				continue // defensive: no broadcast reaches a down worker
			}
			// Live or rejoining without a sender (the rejoin round itself,
			// or recovery from a missed rejoin broadcast): re-dial through
			// the bounded backoff ladder before submitting.
			if send == nil {
				fresh, _, err := dialUDPWithBackoff(c.recv.Addr(), c.cfg.Codec, c.cfg.MTU)
				if err != nil {
					return err
				}
				fresh.SetPacing(udpPaceBurst, udpPaceDelay)
				send = fresh
				c.setGradSender(w.id, fresh)
			}
		}
		var model *transport.ModelMsg
		switch {
		case ev.Complete:
			lastStep, lastParams = ev.Step, ev.Params
			model = &transport.ModelMsg{Step: ev.Step, Params: ev.Params}
		case ev.Torn && c.cfg.ModelRecoup == ModelRecoupStale && lastStep >= 0:
			// Stale recoup: train on the last complete model; the gradient
			// is tagged with the stale step and the server — which knows
			// the same schedule — accepts it into the current round.
			model = &transport.ModelMsg{Step: lastStep, Params: lastParams}
		default:
			// Skip policy, a torn broadcast before any complete model, or
			// a genuinely lost one: consume and submit nothing. The server
			// recoups the slot (per schedule for the first two, per round
			// deadline for the last).
			continue
		}
		if c.cfg.Unresponsive[w.id] {
			continue // consume the broadcast, never answer (crashed node)
		}
		// roundSubmission resolves the asynchronous slow schedule (retaining
		// the broadcast model, training stale, or sitting the round out); in
		// lockstep it is a plain submission. Async requires a loss-free model
		// channel, so here model.Step == ev.Step always — the two staleness
		// regimes never compose.
		msg := w.roundSubmission(model)
		if msg == nil {
			continue // scheduled too-stale: the worker sits the round out
		}
		pktScratch = c.cfg.Codec.SplitInto(pktScratch[:0], msg, c.cfg.MTU)
		// The uplink schedule stays keyed on the round (ev.Step), not the
		// stale tag, so two stale submissions off the same model never
		// reuse a drop mask. SendPackets applies the mask and moves the
		// survivors through the sender's arena in sendmmsg batches.
		drop := udpDropSchedule(c.cfg.Seed, ev.Step, w.id, len(pktScratch), c.cfg.DropRate)
		if err := send.SendPackets(pktScratch, drop); err != nil {
			return err
		}
	}
}

// Step runs one synchronous round over the datagram sockets.
func (c *UDPCluster) Step() (*ps.StepResult, error) {
	if !c.started {
		return nil, errors.New("cluster: Step before Start")
	}
	if c.closed {
		return nil, errors.New("cluster: Step after Close")
	}
	select {
	case err := <-c.workerErrs:
		return nil, fmt.Errorf("cluster: worker failed: %w", err)
	default:
	}
	n := c.cfg.Workers
	res := &ps.StepResult{Step: c.step}
	asm := c.recv.Reassembler()
	// Partials from earlier rounds can never complete (their remaining
	// packets were scheduled drops); release them so a silent worker cannot
	// grow server memory.
	asm.DropStale(c.step)

	// Churn schedule: the same ps.ChurnSeed evaluation the workers perform.
	// The gradient channel is connectionless, so there is no handshake to
	// observe — scheduled rejoins are self-admitted through the tracker
	// (attempts 1: on the scheduled path the backoff dialer's first attempt
	// succeeds) and the verdict is asserted. Crashed and down workers' slots
	// are dropped by design: never awaited, never recouped.
	var phases []ps.ChurnPhase
	if c.membership != nil {
		phases = c.membership.BeginRound(c.step)
		for id := 0; id < n; id++ {
			if phases[id] != ps.ChurnRejoin {
				continue
			}
			if v := c.membership.Admit(id, c.step, 1); v != ps.RejoinAdmit {
				return nil, fmt.Errorf("cluster: scheduled rejoin of worker %d at step %d rejected: %v", id, c.step, v)
			}
			delete(c.suspected, id)
		}
		res.Crashes = c.membership.RoundCrashes()
		res.Rejoins = c.membership.RoundRejoins()
		res.ReconnectAttempts = c.membership.RoundReconnectAttempts()
	}

	dim := c.params.Dim()
	per := c.cfg.Codec.CoordsPerPacket(c.cfg.MTU)
	pktCount := c.cfg.Codec.PacketsPerTransfer(dim, c.cfg.MTU)

	// Downlink schedule: which model packets reach which worker, and —
	// from the same pure function the workers evaluate — the step each
	// worker's submission for this round will be tagged with: the current
	// step after a complete broadcast, the worker's last complete step
	// after a torn one under ModelRecoupStale, or none at all (-1) when
	// the worker cannot submit (skip policy, no complete model yet, or a
	// broadcast with no surviving packet, which the worker never even
	// learns happened). Note stale tags repeat across consecutive torn
	// rounds, so the reassembler key (worker, tag) is only unique per
	// round on the scheduled path; a gradient packet delayed across a
	// round deadline (already the non-deterministic contingency) can seed
	// the next same-tagged partial with stale metadata, in which case that
	// slot settles through the recoup fill and the GAR absorbs it like any
	// other corrupted gradient.
	async := c.cfg.Async.Enabled()
	modelDrop := make([][]bool, n)
	expectTag := make([]int, n)
	for id := 0; id < n; id++ {
		modelDrop[id] = modelDropSchedule(c.cfg.Seed, c.step, id, pktCount, c.cfg.ModelDropRate)
		if phases != nil && !churnParticipates(phases[id]) {
			// Crashed this round (receives the broadcast, submits nothing)
			// or down (no broadcast at all): the slot can never fill.
			expectTag[id] = -1
			continue
		}
		if async {
			// Asynchronous rounds: the slow schedule — not the (loss-free)
			// model channel — decides each slot's tag: the current step for a
			// fresh worker, an older one for a scheduled-slow worker training
			// on its retained model, -1 when the scheduled lag breaches τ and
			// the worker sits the round out.
			expectTag[id] = c.cfg.Async.ExpectedTag(c.cfg.Seed, c.step, id)
			if expectTag[id] < 0 {
				res.DroppedStale++
			}
			continue
		}
		surv := transport.CountSurvivors(modelDrop[id], pktCount)
		switch {
		case surv == pktCount:
			expectTag[id] = c.step
			c.lastComplete[id] = c.step
		case surv > 0 && c.cfg.ModelRecoup == ModelRecoupStale && c.lastComplete[id] >= 0:
			expectTag[id] = c.lastComplete[id]
		default:
			expectTag[id] = -1
		}
	}

	if err := c.broadcast(phases, modelDrop); err != nil {
		return nil, err
	}

	// The server evaluates every worker's uplink drop schedule itself:
	// expected packet arrivals and known-lost coordinate counts per slot.
	// Workers that cannot submit this round expect zero packets.
	expectPkts := make([]int, n)
	lostCoords := make([]int, n)
	for id := 0; id < n; id++ {
		if expectTag[id] < 0 {
			continue
		}
		drop := udpDropSchedule(c.cfg.Seed, c.step, id, pktCount, c.cfg.DropRate)
		expectPkts[id] = pktCount
		for p, d := range drop {
			if !d {
				continue
			}
			expectPkts[id]--
			w := dim - p*per
			if w > per {
				w = per
			}
			lostCoords[id] += w
		}
	}

	grads := make([]tensor.Vector, n)
	losses := make([]float64, n)
	got := make([]bool, n)     // slot holds a gradient (received or recouped)
	hasLoss := make([]bool, n) // the worker's loss metadata actually arrived
	dropped := make([]bool, n) // slot settled by the DropGradient policy

	// Slots whose every packet is scheduled to drop can never arrive:
	// recoup them up front (whole-gradient recoup, like a timed-out slot).
	// A slot the asynchronous schedule dropped as too stale is settled
	// without recoup — the server proceeds as if the worker does not exist
	// this round, which is the whole point of the quorum design.
	for id := 0; id < n; id++ {
		if expectPkts[id] > 0 {
			continue
		}
		if async && expectTag[id] < 0 {
			dropped[id] = true
			continue
		}
		if phases != nil && !churnParticipates(phases[id]) {
			dropped[id] = true // scheduled crash/down: dropped by design, never recouped
			continue
		}
		if v := c.recoupSlot(id); v != nil {
			grads[id] = v
			got[id] = true
		} else {
			dropped[id] = true
		}
	}

	// Collection phase: pump packets into the reassembler, slotting by
	// self-declared worker id. A slot settles when its gradient completes,
	// or — under loss — the moment all its surviving packets are in and the
	// known-lost coordinates are recouped. Datagrams are unauthenticated,
	// so anything malformed (out-of-range ids, wrong dimension, stale or
	// future steps, duplicates after settlement) is ignored, never fatal: a
	// single hostile datagram must not take the round down.
	outstanding := func() int {
		m := 0
		for id := 0; id < n; id++ {
			if !got[id] && !dropped[id] && !c.suspected[id] {
				m++
			}
		}
		return m
	}
	deadline := roundDeadline(c.cfg.RoundTimeout)
	for outstanding() > 0 {
		remaining := untilDeadline(deadline)
		if remaining <= 0 {
			break
		}
		pkt, err := c.recv.RecvPacket(remaining)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				break
			}
			return nil, fmt.Errorf("cluster: gradient receive at step %d: %w", c.step, err)
		}
		id := pkt.Worker
		if id < 0 || id >= n || expectTag[id] < 0 || pkt.Step != expectTag[id] || pkt.Dim != dim {
			continue
		}
		if got[id] || dropped[id] {
			continue // duplicate delivery after settlement: protocol-normal
		}
		if msg, done := asm.Offer(pkt); done {
			grads[id] = msg.Grad
			losses[id] = msg.Loss
			got[id], hasLoss[id] = true, true
			delete(c.suspected, id) // recovered straggler rejoins the quorum
		} else if missing, ok := asm.Missing(id, expectTag[id]); ok && missing == lostCoords[id] {
			c.settleLost(asm, id, expectTag[id], grads, losses, got, hasLoss, dropped)
			if got[id] {
				delete(c.suspected, id)
			}
		}
	}

	// Deadline: the round proceeds with whatever arrived (the paper's
	// bounded waiting). Missing workers are suspected and not waited for in
	// later rounds, so one unresponsive node costs one timeout, not one per
	// round. Their slots — empty or partial — are recouped per the policy.
	for id := 0; id < n; id++ {
		if got[id] || dropped[id] {
			continue
		}
		c.suspected[id] = true
		if _, pending := asm.Missing(id, expectTag[id]); pending {
			c.settleLost(asm, id, expectTag[id], grads, losses, got, hasLoss, dropped)
			continue
		}
		if v := c.recoupSlot(id); v != nil {
			grads[id] = v
			got[id] = true
		}
	}

	// Aggregation input in worker-id order — accept order is a race, and
	// floating-point summation is order-sensitive.
	received := make([]tensor.Vector, 0, n)
	for id := 0; id < n; id++ {
		if got[id] {
			received = append(received, grads[id])
			// Stale counts only slots carrying an actual stale-tagged
			// submission (arrived or fill-completed from its partial) —
			// hasLoss distinguishes those from wholly recouped slots,
			// which contain no worker gradient at all. The two staleness
			// regimes are mutually exclusive, so under async the same
			// condition counts scheduled slow-worker admissions instead.
			if hasLoss[id] && expectTag[id] >= 0 && expectTag[id] != c.step {
				if async {
					res.AdmittedStale++
				} else {
					res.Stale++
				}
			}
		}
	}
	res.Received = len(received)

	// Mean honest loss (diagnostic only; Byzantine losses are excluded, as
	// are slots whose loss metadata never arrived).
	var lossSum float64
	var lossN int
	for id := 0; id < n; id++ {
		if !hasLoss[id] {
			continue
		}
		if _, byz := c.cfg.Byzantine[id]; byz {
			continue
		}
		lossSum += losses[id]
		lossN++
	}
	if lossN > 0 {
		res.Loss = lossSum / float64(lossN)
	}

	// Quorum gate: an asynchronous round below the scheduled quorum is
	// skipped rather than waited on, mirroring the other backends.
	if async && len(received) < c.cfg.Async.EffectiveQuorum(n) {
		res.Skipped = true
		c.step++
		return res, nil
	}

	// Below-bound gate: when churn shrinks live membership under the GAR's
	// Byzantine safety bound (n_live < MinWorkers, e.g. 2f+3 for the
	// Krum family), aggregating would be unsafe — the rule's resilience
	// proof no longer holds for the configured f. The round is skipped
	// explicitly, without calling the GAR, and counted.
	if c.membership != nil {
		if info, ok := c.cfg.GAR.(gar.ByzantineInfo); ok && c.membership.Live() < info.MinWorkers() {
			res.BelowBound = true
			res.Skipped = true
			c.step++
			return res, nil
		}
	}

	// Aggregation + descent phase, mirroring the TCP backend: a round whose
	// survivor count violates the GAR's quorum is skipped, not deadlocked.
	agg, err := gar.AggregateInto(c.ws, c.cfg.GAR, received)
	if err != nil {
		if errors.Is(err, gar.ErrTooFewWorkers) || errors.Is(err, gar.ErrNoGradients) {
			res.Skipped = true
			c.step++
			return res, nil
		}
		return nil, fmt.Errorf("cluster: aggregation at step %d: %w", c.step, err)
	}
	opt.Regularize(agg, c.params, c.cfg.L1, c.cfg.L2)
	c.cfg.Optimizer.Step(c.step, c.params, agg)
	c.server.SetParamsVector(c.params)
	c.step++
	return res, nil
}

// broadcast sends the current model to every worker. Suspected workers are
// included — a straggler that recovers can rejoin the round. Scheduled
// downlink drops are applied before the write (SendPackets takes the mask),
// mirroring the uplink design. Every pacing sleep of a sequential fan-out
// would add to the round, so the sends run concurrently, one goroutine per
// worker: each sender owns its socket, encode arena and pacing state, and
// the split packets are only read. Only timing changes, never content. When
// several sends fail, the lowest worker id's error is returned, whichever
// failed first.
func (c *UDPCluster) broadcast(phases []ps.ChurnPhase, modelDrop [][]bool) error {
	c.modelPktScratch = c.cfg.Codec.SplitInto(c.modelPktScratch[:0], &transport.GradientMsg{
		Worker: transport.ModelWorkerID, Step: c.step, Grad: c.params,
	}, c.cfg.MTU)
	errs := make([]error, len(c.modelSenders))
	var wg sync.WaitGroup
	for id, s := range c.modelSenders {
		if phases != nil && phases[id] == ps.ChurnDown {
			continue // down worker: no broadcast (a crashing one still gets its last)
		}
		wg.Add(1)
		go func(id int, s *transport.UDPSender) {
			defer wg.Done()
			errs[id] = s.SendPackets(c.modelPktScratch, modelDrop[id])
		}(id, s)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: model broadcast to worker %d at step %d: %w", id, c.step, err)
		}
	}
	return nil
}

// settleLost resolves worker id's partial gradient whose remaining
// coordinates are presumed lost, per the recoup policy: DropGradient
// discards it, FillNaN and FillRandom force-complete it — the fill keyed on
// (seed, round, id) and applied in ascending coordinate order, so the
// values are a pure function of the configuration and the set of missing
// coordinates. tag is the step the submission is tagged with (the round
// itself, or the worker's stale model step under lossy model broadcasts) —
// the reassembler key; the recoup seed always keys on the round.
func (c *UDPCluster) settleLost(asm *transport.Reassembler, id, tag int, grads []tensor.Vector, losses []float64, got, hasLoss, dropped []bool) {
	switch c.cfg.Recoup {
	case transport.FillNaN:
		msg, ok := asm.FlushFill(id, tag, func(int) float64 { return math.NaN() })
		if !ok {
			return
		}
		grads[id], losses[id] = msg.Grad, msg.Loss
		got[id], hasLoss[id] = true, true
	case transport.FillRandom:
		rng := rand.New(rand.NewSource(ps.RecoupSeed(c.cfg.Seed, c.step, id)))
		msg, ok := asm.FlushFill(id, tag, func(int) float64 { return rng.NormFloat64() })
		if !ok {
			return
		}
		grads[id], losses[id] = msg.Grad, msg.Loss
		got[id], hasLoss[id] = true, true
	default: // DropGradient
		asm.Discard(id, tag)
		dropped[id] = true
	}
}

// recoupSlot produces the stand-in gradient for a slot with no packets at
// all (every packet scheduled to drop, or a worker that missed the round
// deadline entirely), per the configured recoup policy. nil means the slot
// is dropped. Identical in construction to the TCP backend's timed-out-slot
// recoup: a deterministic function of (seed, step, worker id).
func (c *UDPCluster) recoupSlot(id int) tensor.Vector {
	switch c.cfg.Recoup {
	case transport.FillNaN:
		v := tensor.NewVector(c.params.Dim())
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	case transport.FillRandom:
		rng := rand.New(rand.NewSource(ps.RecoupSeed(c.cfg.Seed, c.step, id)))
		v := tensor.NewVector(c.params.Dim())
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	default: // DropGradient: proceed without the slot
		return nil
	}
}

// Model returns the server's evaluation replica, synchronised with the
// current parameters.
func (c *UDPCluster) Model() *nn.Network { return c.server }

// Params returns a copy of the current model parameters.
func (c *UDPCluster) Params() tensor.Vector { return c.params.Clone() }

// StepCount returns the number of rounds run so far.
func (c *UDPCluster) StepCount() int { return c.step }

// Close unblocks every worker by closing its model endpoint, waits for the
// worker goroutines, and releases the remaining sockets. It is idempotent.
func (c *UDPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.started {
		if c.recv != nil {
			c.recv.Close()
		}
		return nil
	}
	for _, r := range c.modelRecvs {
		r.Close()
	}
	c.workerWG.Wait()
	for _, s := range c.modelSenders {
		s.Close()
	}
	// Under churn a slot holds whichever sender the worker last dialled, or
	// nil while the schedule had it down when the run ended.
	c.gradMu.Lock()
	for _, s := range c.gradSenders {
		if s != nil {
			s.Close()
		}
	}
	c.gradMu.Unlock()
	return c.recv.Close()
}
