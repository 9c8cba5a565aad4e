package cluster

import (
	"fmt"
	"math/rand"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/nn"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// workerSpec is the backend-independent description of one cluster worker:
// everything a node needs to turn a model broadcast into a wire submission,
// regardless of whether that submission then travels a TCP stream or a burst
// of UDP datagrams. Both socket backends derive it from their configs so the
// gradient streams — and therefore the trajectories — are identical across
// transports.
type workerSpec struct {
	ModelFactory func() *nn.Network
	Train        *data.Dataset
	Batch        int
	Workers      int
	Byzantine    map[int]string
	Unresponsive map[int]bool
	Seed         int64
	Async        ps.AsyncConfig
}

// clusterWorker is one worker node's state: its model replica, seeded
// sampler, attack RNG, and — for workers running an informed attack — the
// omniscient oracle.
type clusterWorker struct {
	id      int
	spec    workerSpec
	replica *nn.Network
	sampler data.Sampler
	rng     *rand.Rand
	atk     attack.Attack

	// Omniscient oracle. The paper's threat model (§3.1) gives colluders
	// every correct gradient before the server sees them (arbitrarily fast
	// channels). Over real sockets there is nothing in flight to observe,
	// so the adversary recomputes them instead: knowing the run seed, the
	// dataset and the model, it replicates every honest worker's sampler
	// and derives the exact gradients the server is about to receive. This
	// keeps informed attacks (omniscient, little-is-enough, ...) available
	// over the wire and bit-identical to the in-process backend. Nil for
	// honest workers and blind attacks.
	peers        []int
	peerReplica  *nn.Network
	peerSamplers map[int]data.Sampler

	// hist retains the last τ+1 complete model broadcasts so a round the
	// slow schedule marks stale can train on the model from lag steps ago —
	// the socket-side twin of the in-process Cluster's history ring.
	hist []tensor.Vector
}

func newClusterWorker(id int, spec workerSpec) (*clusterWorker, error) {
	w := &clusterWorker{
		id:      id,
		spec:    spec,
		replica: spec.ModelFactory(),
		sampler: data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, id)),
		rng:     rand.New(rand.NewSource(ps.AttackSeed(spec.Seed, id))),
	}
	if spec.Async.Enabled() && spec.Async.Staleness > 0 {
		w.hist = make([]tensor.Vector, spec.Async.Staleness+1)
	}
	if name, ok := spec.Byzantine[id]; ok {
		atk, err := attack.New(name)
		if err != nil {
			return nil, err
		}
		w.atk = atk
		// Only informed attacks read the honest gradients (blind ones
		// forge from Own, which every worker computes anyway), so only
		// they pay for the oracle: replicating every honest peer costs one
		// extra forward/backward per peer per round.
		if inf, ok := atk.(attack.Informed); !ok || !inf.RequiresHonest() {
			return w, nil
		}
		w.peerReplica = spec.ModelFactory()
		w.peerSamplers = map[int]data.Sampler{}
		for p := 0; p < spec.Workers; p++ {
			if _, byz := spec.Byzantine[p]; byz || spec.Unresponsive[p] {
				continue
			}
			w.peers = append(w.peers, p)
			w.peerSamplers[p] = data.NewUniformSampler(spec.Train, ps.SamplerSeed(spec.Seed, p))
		}
	}
	return w, nil
}

// submission computes the worker's wire submission for one broadcast: the
// honest gradient and loss, with Byzantine workers forging through the same
// attack.Context the in-process backend builds.
func (w *clusterWorker) submission(model *transport.ModelMsg) *transport.GradientMsg {
	w.replica.SetParamsVector(model.Params)
	x, y := w.sampler.Sample(w.spec.Batch)
	loss, grad := w.replica.Gradient(x, y)
	if w.atk != nil {
		var honest []tensor.Vector // nil for blind attacks: no oracle
		if len(w.peers) > 0 {
			w.peerReplica.SetParamsVector(model.Params)
			for _, p := range w.peers {
				px, py := w.peerSamplers[p].Sample(w.spec.Batch)
				_, pg := w.peerReplica.Gradient(px, py)
				honest = append(honest, pg)
			}
		}
		grad = w.atk.Forge(&attack.Context{
			Step:   model.Step,
			Honest: honest,
			Own:    grad,
			N:      w.spec.Workers,
			F:      len(w.spec.Byzantine),
			Dim:    grad.Dim(),
			Rng:    w.rng,
		})
	}
	return &transport.GradientMsg{Worker: w.id, Step: model.Step, Loss: loss, Grad: grad}
}

// roundSubmission resolves the asynchronous slow-worker schedule for one
// model broadcast and computes the wire submission: a fresh worker trains on
// the broadcast model, a scheduled-slow worker on the model it retained lag
// steps ago (submitting with that older step tag, which is exactly the tag
// the server's schedule evaluation expects), and a worker whose scheduled lag
// breaches the staleness bound returns nil — it sits the round out entirely,
// so the server never waits for the slot. Without an async configuration this
// is a plain submission, byte-identical to the lockstep path.
func (w *clusterWorker) roundSubmission(model *transport.ModelMsg) *transport.GradientMsg {
	if w.hist != nil {
		w.hist[model.Step%len(w.hist)] = model.Params.Clone()
	}
	if !w.spec.Async.Enabled() {
		return w.submission(model)
	}
	tag := w.spec.Async.ExpectedTag(w.spec.Seed, model.Step, w.id)
	switch {
	case tag < 0:
		return nil
	case tag == model.Step:
		return w.submission(model)
	default:
		return w.submission(&transport.ModelMsg{Step: tag, Params: w.hist[tag%len(w.hist)]})
	}
}

// rejectInformedWithSlow enforces the informed-attack × slow-schedule
// incompatibility at cluster construction: an informed attack recomputes the
// honest workers' gradients from the broadcast model, which assumes every
// peer trained fresh — a slow-worker schedule breaks that oracle (mirroring
// the informed × lossy-model-broadcast rule on the UDP backend).
func rejectInformedWithSlow(byzantine map[int]string, async ps.AsyncConfig) error {
	if async.SlowRate <= 0 {
		return nil
	}
	for _, id := range sortedIDs(byzantine) {
		name := byzantine[id]
		atk, err := attack.New(name)
		if err != nil {
			continue // reported by the caller's own attack validation
		}
		if inf, ok := atk.(attack.Informed); ok && inf.RequiresHonest() {
			return fmt.Errorf("cluster: attack %q on worker %d (slowRate %v): %w",
				name, id, async.SlowRate, ps.ErrInformedSlow)
		}
	}
	return nil
}
