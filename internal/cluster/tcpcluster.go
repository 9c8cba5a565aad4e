package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TCPClusterConfig describes a socket-distributed synchronous deployment:
// one parameter server and n worker goroutines, each speaking the transport
// wire protocol over its own TCP connection. Unlike the one-shot TCPTrain
// helper, a TCPCluster is driven round-by-round through the ps.Trainer
// surface, which is what lets core.runTraining and the scenario campaign
// engine treat a socket deployment exactly like an in-process one.
type TCPClusterConfig struct {
	// Addr is the server bind address ("127.0.0.1:0" picks a free port).
	Addr string
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
	// Codec selects the wire coordinate width.
	Codec transport.Codec
	// RoundTimeout bounds the collection phase (the paper's fix for
	// TensorFlow waiting indefinitely on unresponsive nodes). Zero means
	// 30 seconds.
	RoundTimeout time.Duration
	// Byzantine maps worker ids to attack names. A Byzantine worker forges
	// its wire submission; omniscient attacks are honoured by recomputing
	// the honest gradients from the shared run seed (see tcpWorker).
	Byzantine map[int]string
	// Unresponsive marks worker ids that receive broadcasts but never
	// submit a gradient — the paper's unresponsive node, which vanilla
	// TensorFlow waits on forever and AggregaThor bounds with the round
	// timeout.
	Unresponsive map[int]bool
	// Seed is the run seed. Worker sampler and attack RNG seeds are
	// derived from it with the same ps.SamplerSeed/ps.AttackSeed formulas
	// the in-process backend uses, so identical configurations produce
	// identical gradient streams over either backend.
	Seed int64
	// L1, L2 are the regularisation weights.
	L1, L2 float64
	// Recoup selects the policy for slots whose gradient missed the round
	// deadline: DropGradient (default) proceeds without them, FillNaN
	// submits a non-finite vector in their place (the GAR must contain
	// it), FillRandom substitutes a seed-derived random vector. All three
	// are deterministic functions of (seed, step, worker id).
	Recoup transport.RecoupPolicy
	// Async configures asynchronous bounded-staleness rounds. The slow
	// schedule is evaluated at both endpoints (ps.SlowSeed), so the server
	// knows which step tag every slot will carry — a round settles the
	// moment the scheduled quorum is in, with no deadline involved.
	Async ps.AsyncConfig
	// Churn configures the deterministic worker crash/rejoin schedule
	// (ps.ChurnSeed), evaluated at both endpoints: a scheduled worker
	// receives the broadcast, tears its connection down without
	// submitting, and reconnects through the backoff dialer at its
	// scheduled rejoin round — the server's MembershipTracker knows which
	// slots can never arrive and settles rounds without deadline waits.
	// Incompatible with Async, Unresponsive and informed attacks.
	Churn ps.ChurnConfig

	// testAbruptClose (tests only) makes the given worker close its
	// connection without submitting as soon as it receives the broadcast
	// for the given step — the abrupt, unscheduled mid-round disconnect
	// the dead-marking path must absorb by settling the round via recoup
	// instead of wedging until RoundTimeout.
	testAbruptClose map[int]int
}

// recvEvent is one message from a connection reader: a gradient, or the
// reader's terminal error. worker is the id the connection last identified
// itself as, -1 if it died before sending anything; conn is the reader's
// connection, so Step can drop a dead one from the broadcast set.
type recvEvent struct {
	msg    *transport.GradientMsg
	worker int
	conn   *transport.TCPConn
	err    error
}

// TCPCluster is a running socket-distributed deployment that implements
// ps.Trainer: Start accepts the workers once, then each Step broadcasts the
// model, collects id-slotted gradients under the round timeout, aggregates
// and applies the optimizer.
type TCPCluster struct {
	cfg        TCPClusterConfig
	ln         *transport.TCPListener
	conns      []*transport.TCPConn // the broadcast set: every connection whose reader is alive
	frame      []byte               // the round's encoded model frame, reused across rounds
	inbox      chan recvEvent
	workerWG   sync.WaitGroup
	readerWG   sync.WaitGroup
	workerErrs chan error

	server *nn.Network
	params tensor.Vector
	ws     *gar.Workspace // per-cluster aggregation scratch arena
	step   int

	// dead marks identified workers whose connection is gone; suspected
	// marks workers that missed a round deadline and are no longer waited
	// for (a late gradient for the current step re-admits them).
	dead      map[int]bool
	suspected map[int]bool

	// Churn state (nil/unused when the schedule is disabled): the
	// membership tracker, the handshake channel the churn accept loop
	// feeds, a stash for handshakes that arrived ahead of their scheduled
	// rejoin round, a stop signal for in-flight handshake readers, and the
	// accept-loop waitgroup.
	membership  *ps.MembershipTracker
	rejoinCh    chan tcpRejoin
	rejoinStash []tcpRejoin
	stop        chan struct{}
	acceptWG    sync.WaitGroup

	started bool
	closed  bool
}

// tcpRejoin pairs a freshly accepted reconnect with its handshake frame.
type tcpRejoin struct {
	conn  *transport.TCPConn
	hello *transport.GradientMsg
}

var _ ps.Trainer = (*TCPCluster)(nil)

// NewTCPCluster validates the configuration and builds the (not yet
// listening) cluster. Attack names are resolved here so a misconfigured
// deployment fails before any socket is opened.
func NewTCPCluster(cfg TCPClusterConfig) (*TCPCluster, error) {
	if cfg.ModelFactory == nil || cfg.GAR == nil || cfg.Optimizer == nil || cfg.Train == nil {
		return nil, errors.New("cluster: TCPCluster config missing required field")
	}
	if cfg.Workers <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("cluster: bad sizes workers=%d batch=%d", cfg.Workers, cfg.Batch)
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
		if id < 0 || id >= cfg.Workers {
			return nil, fmt.Errorf("cluster: Byzantine worker id %d outside [0, %d)", id, cfg.Workers)
		}
		if _, err := attack.New(cfg.Byzantine[id]); err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", id, err)
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
	if err := cfg.Churn.Validate(); err != nil {
		return nil, err
	}
	if cfg.Churn.Enabled() {
		if cfg.Async.Enabled() {
			return nil, fmt.Errorf("cluster: %w (quorum %d with churn rate %v)",
				ps.ErrChurnAsync, cfg.Async.Quorum, cfg.Churn.Rate)
		}
		if ids := sortedIDs(cfg.Unresponsive); len(ids) > 0 {
			return nil, fmt.Errorf("cluster: unresponsive worker %d cannot compose with churn: it never identifies on the wire, so a scheduled teardown cannot be told from a failure", ids[0])
		}
		if err := rejectInformedWithChurn(cfg.Byzantine, cfg.Churn); err != nil {
			return nil, err
		}
	}
	c := &TCPCluster{
		cfg:        cfg,
		server:     cfg.ModelFactory(),
		workerErrs: make(chan error, cfg.Workers),
		dead:       map[int]bool{},
		suspected:  map[int]bool{},
		ws:         gar.NewWorkspace(),
	}
	if cfg.Churn.Enabled() {
		c.membership = ps.NewMembershipTracker(cfg.Churn, cfg.Seed, cfg.Workers)
		c.rejoinCh = make(chan tcpRejoin, cfg.Workers)
		c.stop = make(chan struct{})
	}
	c.params = c.server.ParamsVector()
	return c, nil
}

// Start binds the listener, launches the worker goroutines and accepts their
// connections. It must be called exactly once before Step.
func (c *TCPCluster) Start() error {
	if c.started {
		return errors.New("cluster: Start called twice")
	}
	if c.closed {
		return errors.New("cluster: Start after Close")
	}
	ln, err := transport.ListenTCP(c.cfg.Addr, c.cfg.Codec)
	if err != nil {
		return err
	}
	c.ln = ln
	for id := 0; id < c.cfg.Workers; id++ {
		c.workerWG.Add(1)
		go func(id int) {
			defer c.workerWG.Done()
			if err := runTCPClusterWorker(ln.Addr(), id, &c.cfg); err != nil {
				c.workerErrs <- fmt.Errorf("worker %d: %w", id, err)
			}
		}(id)
	}
	// Accept every worker, but watch for worker startup failures (a dial
	// error) so a worker that never connects fails Start instead of
	// leaving Accept waiting forever for the nth connection.
	type acceptResult struct {
		conn *transport.TCPConn
		err  error
	}
	acceptCh := make(chan acceptResult, c.cfg.Workers)
	//aggrevet:goro exits after n accepts or the first error; abortStart closes the listener to unblock a pending Accept
	go func() {
		for i := 0; i < c.cfg.Workers; i++ {
			conn, err := ln.Accept()
			acceptCh <- acceptResult{conn: conn, err: err}
			if err != nil {
				return
			}
		}
	}()
	c.conns = make([]*transport.TCPConn, 0, c.cfg.Workers)
	for len(c.conns) < c.cfg.Workers {
		//aggrevet:select startup-only race: a ready workerErrs means the run is already doomed, and either order reaches the same abort
		select {
		case r := <-acceptCh:
			if r.err != nil {
				c.abortStart()
				return r.err
			}
			c.conns = append(c.conns, r.conn)
		case err := <-c.workerErrs:
			c.abortStart()
			return fmt.Errorf("cluster: worker failed during startup: %w", err)
		}
	}
	// One persistent reader per connection: gradients from every round —
	// including late straggler submissions — funnel into the inbox, where
	// Step slots them by self-declared worker id.
	c.inbox = make(chan recvEvent, 2*c.cfg.Workers)
	for _, conn := range c.conns {
		c.startReader(conn, -1)
	}
	if c.cfg.Churn.Enabled() {
		c.acceptRejoins()
	}
	c.started = true
	return nil
}

// startReader launches the persistent reader for one connection. worker is
// the id the connection is already known to speak for (-1 for the initial
// anonymous accepts; the rejoin handshake identifies reconnects up front).
func (c *TCPCluster) startReader(conn *transport.TCPConn, worker int) {
	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		for {
			msg, err := conn.RecvGradient()
			if err != nil {
				c.inbox <- recvEvent{worker: worker, conn: conn, err: err}
				return
			}
			worker = msg.Worker
			c.inbox <- recvEvent{msg: msg, worker: msg.Worker}
		}
	}()
}

// acceptRejoins keeps the listener accepting after startup (churn only): a
// crashed worker dials back through the backoff ladder whenever its schedule
// says, sends the rejoin handshake as its first frame, and the connection is
// handed to Step — which admits it through the MembershipTracker at the
// scheduled rejoin round. The loop exits when Close releases the listener.
func (c *TCPCluster) acceptRejoins() {
	c.acceptWG.Add(1)
	go func() {
		defer c.acceptWG.Done()
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				return // listener closed: shutdown
			}
			c.acceptWG.Add(1)
			go func() {
				defer c.acceptWG.Done()
				hello, err := conn.RecvGradient()
				if err != nil {
					conn.Close()
					return
				}
				select {
				case c.rejoinCh <- tcpRejoin{conn: conn, hello: hello}:
				case <-c.stop:
					conn.Close()
				}
			}()
		}
	}()
}

// abortStart tears a failed startup down completely: accepted connections
// are closed (unblocking their workers' RecvModel), the listener is closed
// (unblocking the accept goroutine), and the worker goroutines are waited
// for — no leak per failed deployment, and the later deferred Close stays a
// safe no-op.
func (c *TCPCluster) abortStart() {
	c.closed = true
	for _, conn := range c.conns {
		conn.Close()
	}
	c.ln.Close()
	c.workerWG.Wait()
}

// Step runs one synchronous round over the sockets.
func (c *TCPCluster) Step() (*ps.StepResult, error) {
	if !c.started {
		return nil, errors.New("cluster: Step before Start")
	}
	if c.closed {
		return nil, errors.New("cluster: Step after Close")
	}
	n := c.cfg.Workers
	res := &ps.StepResult{Step: c.step}

	// Asynchronous schedule: the same ps.SlowSeed evaluation the workers
	// perform, so the server knows which step tag every slot will carry
	// this round and which slots will never be filled (expect -1).
	var expect []int
	if c.cfg.Async.Enabled() {
		expect = make([]int, n)
		for id := range expect {
			expect[id] = c.cfg.Async.ExpectedTag(c.cfg.Seed, c.step, id)
			if expect[id] < 0 {
				res.DroppedStale++
			}
		}
	}

	// Churn schedule: the same ps.ChurnSeed evaluation the workers
	// perform. Scheduled rejoins are admitted before the broadcast so a
	// reconnected worker receives this round's model; crashed and down
	// workers' slots are dropped by design — never awaited, never
	// recouped.
	var phases []ps.ChurnPhase
	if c.membership != nil {
		phases = c.membership.BeginRound(c.step)
		if err := c.admitRejoins(); err != nil {
			return nil, err
		}
		res.Crashes = c.membership.RoundCrashes()
		res.Rejoins = c.membership.RoundRejoins()
		res.ReconnectAttempts = c.membership.RoundReconnectAttempts()
	}

	// Broadcast phase (parallel sends of one frame, encoded once).
	// Suspected workers are included — a straggler that recovers can rejoin
	// the round. A connection whose reader has reported its death has left
	// the broadcast set; a send to one that died since fails harmlessly.
	// Every write finishes before sendWG.Wait returns, so the frame buffer
	// is free to reuse next round.
	c.frame = c.cfg.Codec.EncodeModelFrame(c.frame, &transport.ModelMsg{Step: c.step, Params: c.params})
	var sendWG sync.WaitGroup
	var liveSends int64
	var liveMu sync.Mutex
	for _, conn := range c.conns {
		sendWG.Add(1)
		go func(conn *transport.TCPConn) {
			defer sendWG.Done()
			if err := conn.WriteFrame(c.frame); err == nil {
				liveMu.Lock()
				liveSends++
				liveMu.Unlock()
			}
		}(conn)
	}
	sendWG.Wait()
	// A churn round with every worker scheduled down has an empty
	// broadcast set by design; anywhere else no live connection is fatal.
	if liveSends == 0 && (c.membership == nil || c.membership.Live() > 0) {
		return nil, fmt.Errorf("cluster: no live worker connections at step %d", c.step)
	}

	// Collection phase: wait for every live, unsuspected worker's gradient
	// or the round deadline, whichever comes first. Gradients are slotted
	// by self-declared worker id — accept order is a race, and aggregating
	// in a scheduling-dependent order would make even all-honest
	// distributed runs non-reproducible (floating-point summation is
	// order-sensitive).
	grads := make([]tensor.Vector, n)
	losses := make([]float64, n)
	got := make([]bool, n)
	outstanding := func() int {
		m := 0
		for id := 0; id < n; id++ {
			if expect != nil && expect[id] < 0 {
				continue // scheduled too-stale: the slot will never fill
			}
			if phases != nil && !churnParticipates(phases[id]) {
				continue // scheduled crash/down: the slot will never fill
			}
			if !got[id] && !c.dead[id] && !c.suspected[id] {
				m++
			}
		}
		return m
	}
	timer := newRoundTimer(c.cfg.RoundTimeout)
	defer timer.Stop()
	for outstanding() > 0 {
		//aggrevet:select a ready timer means a missed deadline that aborts the round loudly; healthy gathers never race it
		select {
		case ev := <-c.inbox:
			if ev.err != nil {
				c.dropConn(ev.conn)
				if ev.worker < 0 {
					// A connection that dies before its worker ever
					// identified itself is a deployment failure (a healthy
					// worker only disconnects after the server hangs up),
					// not Byzantine behaviour to tolerate.
					return nil, fmt.Errorf("cluster: worker connection lost before first gradient at step %d: %w",
						c.step, c.workerFailure(ev.err))
				}
				if c.membership != nil && c.membership.Churned(ev.worker) {
					// A scheduled teardown: the worker closed its side per
					// the churn schedule (or its pre-crash connection's
					// reader is winding down). Not a death — it rejoins on
					// a fresh connection at its scheduled round.
					continue
				}
				c.dead[ev.worker] = true
				continue
			}
			msg := ev.msg
			if msg.Worker < 0 || msg.Worker >= n {
				return nil, fmt.Errorf("cluster: gradient from out-of-range worker id %d", msg.Worker)
			}
			want := c.step
			if expect != nil {
				want = expect[msg.Worker]
			}
			if msg.Step != want {
				if msg.Step < c.step {
					continue // stale straggler submission from an earlier round
				}
				return nil, fmt.Errorf("cluster: gradient for future step %d at step %d", msg.Step, c.step)
			}
			if got[msg.Worker] {
				// A lying worker reusing another id must fail loudly, not
				// silently shrink the honest set.
				return nil, fmt.Errorf("cluster: duplicate gradient for worker id %d at step %d", msg.Worker, c.step)
			}
			if msg.Step < c.step {
				res.AdmittedStale++
			}
			got[msg.Worker] = true
			grads[msg.Worker] = msg.Grad
			losses[msg.Worker] = msg.Loss
			delete(c.suspected, msg.Worker) // recovered straggler rejoins the quorum
		case <-timer.C:
			// Deadline: the round proceeds with whatever arrived (the
			// paper's bounded waiting). Missing workers are suspected and
			// not waited for in later rounds, so one unresponsive node
			// costs one timeout, not one per round.
			for id := 0; id < n; id++ {
				if !got[id] && !c.dead[id] && !c.suspected[id] {
					c.suspected[id] = true
				}
			}
		}
	}

	// Recoup phase: absent slots are handled by the configured policy, a
	// deterministic function of (seed, step, worker id).
	received := make([]tensor.Vector, 0, n)
	for id := 0; id < n; id++ {
		if got[id] {
			received = append(received, grads[id])
			continue
		}
		if expect != nil && expect[id] < 0 {
			continue // scheduled too-stale: dropped by design, never recouped
		}
		if phases != nil && !churnParticipates(phases[id]) {
			continue // scheduled crash/down: dropped by design, never recouped
		}
		if v := c.recoupSlot(id); v != nil {
			received = append(received, v)
		}
	}
	res.Received = len(received)

	// Mean honest loss (diagnostic only; Byzantine losses are excluded).
	var lossSum float64
	var lossN int
	for id := 0; id < n; id++ {
		if !got[id] {
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
	// skipped rather than waited on, mirroring the in-process Cluster.
	if c.cfg.Async.Enabled() && len(received) < c.cfg.Async.EffectiveQuorum(n) {
		res.Skipped = true
		c.step++
		return res, nil
	}

	// Below-bound gate: when churn shrinks live membership under the
	// GAR's Byzantine safety bound (n_live < MinWorkers, e.g. 2f+3 for
	// Krum-family rules), aggregating would be unsafe — the rule's
	// resilience proof no longer holds for the configured f. The round is
	// skipped explicitly, without calling the GAR, and counted.
	if c.membership != nil {
		if info, ok := c.cfg.GAR.(gar.ByzantineInfo); ok && c.membership.Live() < info.MinWorkers() {
			res.BelowBound = true
			res.Skipped = true
			c.step++
			return res, nil
		}
	}

	// Aggregation + descent phase, mirroring the in-process Cluster: a
	// round whose survivor count violates the GAR's quorum is skipped, not
	// deadlocked.
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

// admitRejoins installs this round's scheduled reconnects before the
// broadcast, so a rejoined worker receives the current model. A worker
// dials back (and hands its handshake to the accept loop) the moment it
// crashes, not at its rejoin round, so early handshakes wait in the stash;
// a handshake that fails to appear by the round timeout is a loud error —
// the schedule said the worker would be back.
func (c *TCPCluster) admitRejoins() error {
	stash := c.rejoinStash[:0]
	for _, rj := range c.rejoinStash {
		if rj.hello.Step < c.step {
			rj.conn.Close()
			return fmt.Errorf("cluster: stale rejoin handshake for worker %d (step %d) at step %d",
				rj.hello.Worker, rj.hello.Step, c.step)
		}
		if rj.hello.Step == c.step {
			if err := c.installRejoin(rj); err != nil {
				return err
			}
			continue
		}
		stash = append(stash, rj)
	}
	c.rejoinStash = stash
	if c.membership.PendingRejoins() == 0 {
		return nil
	}
	timer := newRoundTimer(c.cfg.RoundTimeout)
	defer timer.Stop()
	for c.membership.PendingRejoins() > 0 {
		//aggrevet:select a ready timer means a missed rejoin deadline that aborts the round loudly; healthy rejoins never race it
		select {
		case rj := <-c.rejoinCh:
			if rj.hello.Step > c.step {
				c.rejoinStash = append(c.rejoinStash, rj)
				continue
			}
			if err := c.installRejoin(rj); err != nil {
				return err
			}
		case <-timer.C:
			return fmt.Errorf("cluster: %d scheduled rejoin handshake(s) missing at step %d after %v",
				c.membership.PendingRejoins(), c.step, c.cfg.RoundTimeout)
		}
	}
	return nil
}

// installRejoin offers one handshake to the MembershipTracker and, on
// admission, installs the fresh connection: it joins the broadcast set and
// gets a persistent reader pre-identified by the handshake.
func (c *TCPCluster) installRejoin(rj tcpRejoin) error {
	hello := rj.hello
	if v := c.membership.Admit(hello.Worker, hello.Step, int(hello.Loss)); v != ps.RejoinAdmit {
		rj.conn.Close()
		return fmt.Errorf("cluster: rejoin handshake for worker %d (step %d) rejected at step %d: %v",
			hello.Worker, hello.Step, c.step, v)
	}
	delete(c.dead, hello.Worker)
	delete(c.suspected, hello.Worker)
	c.conns = append(c.conns, rj.conn)
	c.startReader(rj.conn, hello.Worker)
	return nil
}

// dropConn removes a connection whose reader has exited from the broadcast
// set and closes it. Without this, every crash/rejoin cycle would leave one
// more dead connection for each later round to write to.
func (c *TCPCluster) dropConn(conn *transport.TCPConn) {
	if i := slices.Index(c.conns, conn); i >= 0 {
		c.conns = slices.Delete(c.conns, i, i+1)
	}
	conn.Close()
}

// recoupSlot produces the stand-in gradient for a slot that missed the round
// deadline, per the configured recoup policy. nil means the slot is dropped.
func (c *TCPCluster) recoupSlot(id int) tensor.Vector {
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

// workerFailure surfaces the root cause of an anonymous connection loss: the
// failing worker goroutine reports its error just after closing its
// connection, so wait briefly for it before falling back to the read error.
func (c *TCPCluster) workerFailure(readErr error) error {
	//aggrevet:select error-path only: the run already failed, the window merely improves root-cause attribution
	select {
	case err := <-c.workerErrs:
		return err
	case <-failureReportWindow(200 * time.Millisecond):
		return readErr
	}
}

// Model returns the server's evaluation replica, synchronised with the
// current parameters.
func (c *TCPCluster) Model() *nn.Network { return c.server }

// Params returns a copy of the current model parameters.
func (c *TCPCluster) Params() tensor.Vector { return c.params.Clone() }

// StepCount returns the number of rounds run so far.
func (c *TCPCluster) StepCount() int { return c.step }

// Close hangs up every worker connection, waits for the workers and readers
// to exit, and releases the listener. It is idempotent.
func (c *TCPCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.stop != nil {
		close(c.stop) // release hello goroutines blocked on rejoinCh
	}
	if !c.started {
		if c.ln != nil {
			c.ln.Close()
		}
		return nil
	}
	for _, conn := range c.conns {
		conn.Close()
	}
	for _, rj := range c.rejoinStash {
		rj.conn.Close()
	}
	// Drain reader events until every reader has exited, so none blocks on
	// a full inbox while shutting down; workers exit on the closed
	// connection (post-shutdown read errors are expected, not surfaced).
	done := make(chan struct{})
	go func() {
		c.readerWG.Wait()
		close(done)
	}()
	for drained := false; !drained; {
		//aggrevet:select shutdown drain: received events are discarded, so resolution order cannot reach results
		select {
		case <-c.inbox:
		case <-done:
			drained = true
		}
	}
	err := c.ln.Close() // unblocks the rejoin accept loop, if any
	c.acceptWG.Wait()
	// Handshakes that arrived after the last admitted round still own live
	// connections; hang those up so their workers' RecvModel returns.
	for churnDrained := false; !churnDrained; {
		select {
		case rj := <-c.rejoinCh:
			rj.conn.Close()
		default:
			churnDrained = true
		}
	}
	c.workerWG.Wait()
	return err
}

// workerSpec extracts the backend-independent worker description (shared
// with the UDP backend — see worker.go).
func (cfg *TCPClusterConfig) workerSpec() workerSpec {
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

// runTCPClusterWorker is the worker main loop: dial, then model→gradient
// until the server hangs up. Under a churn schedule the worker evaluates
// the same seeded draws as the server: on a scheduled crash it tears the
// socket down without a goodbye, dials back through the bounded backoff
// ladder, and opens the fresh connection with a rejoin handshake the server
// holds until the scheduled rejoin round.
func runTCPClusterWorker(addr string, id int, cfg *TCPClusterConfig) error {
	conn, err := transport.DialTCP(addr, cfg.Codec)
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	w, err := newClusterWorker(id, cfg.workerSpec())
	if err != nil {
		return err
	}
	churn := cfg.Churn.Timeline(cfg.Seed, id)
	for {
		model, err := conn.RecvModel()
		if err != nil {
			return nil // server hung up: normal termination
		}
		if cfg.Churn.Enabled() {
			switch churn.Phase(model.Step) {
			case ps.ChurnCrash:
				conn.Close() // abrupt teardown: no goodbye, no submission
				if churn.Permanent(model.Step) {
					return nil // rejoin budget exhausted: gone for good
				}
				// Dial back immediately; the handshake waits server-side
				// until the scheduled rejoin round admits it.
				fresh, attempts, err := dialTCPWithBackoff(addr, cfg.Codec)
				if err != nil {
					return err
				}
				conn = fresh
				hello := rejoinHello(id, model.Step+cfg.Churn.DownSteps, attempts)
				if err := conn.SendGradient(hello); err != nil {
					return err
				}
				continue
			case ps.ChurnDown:
				continue // defensive: a down worker holds no connection
			}
		}
		if s, ok := cfg.testAbruptClose[id]; ok && model.Step == s {
			conn.Close() // test hook: vanish between broadcast and submit
			return nil
		}
		if cfg.Unresponsive[id] {
			continue // consume the broadcast, never answer (crashed node)
		}
		sub := w.roundSubmission(model)
		if sub == nil {
			continue // scheduled too-stale: the worker sits the round out
		}
		if err := conn.SendGradient(sub); err != nil {
			return err
		}
	}
}
