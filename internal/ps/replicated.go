package ps

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
)

// ReplicatedCluster implements the paper's §6 proposal for removing the
// trusted-server assumption: the parameter server is state-machine
// replicated. Each replica holds the parameters and runs the same
// deterministic GAR + optimizer; each step every replica proposes its model
// to the workers, and a worker adopts the value endorsed by more than 2/3 of
// the replicas ("use the model that has been sent by 2/3 of the replicas").
// Because the server computation is deterministic, correct replicas always
// propose bit-identical models, so a Byzantine minority of replicas cannot
// steer the workers.
type ReplicatedCluster struct {
	cfg        ReplicatedConfig
	replicas   []*serverReplica
	workers    []*nn.Network
	rngs       []*rand.Rand
	byzReplica map[int]bool
	ws         *gar.Workspace // shared aggregation scratch arena
	step       int
}

type serverReplica struct {
	params    tensor.Vector
	optimizer opt.Optimizer
	model     *nn.Network
}

// ReplicatedConfig assembles a replicated-server deployment.
type ReplicatedConfig struct {
	// ModelFactory builds network replicas (servers and workers).
	ModelFactory func() *nn.Network
	// ServerReplicas is the replication degree R; tolerating b Byzantine
	// replicas requires R ≥ 3b+1.
	ServerReplicas int
	// ByzantineReplicas lists server replica ids that propose garbage
	// models every step.
	ByzantineReplicas []int
	// Workers lists the n workers (gradient-level attacks supported).
	Workers []WorkerConfig
	// GAR aggregates worker gradients — identical on every replica.
	GAR gar.GAR
	// OptimizerFactory builds one optimizer per replica (each replica
	// carries its own deterministic optimizer state).
	OptimizerFactory func() opt.Optimizer
	// Batch is the per-worker mini-batch size.
	Batch int
	// Seed drives Byzantine-replica noise.
	Seed int64
}

// ErrNoModelQuorum is returned when no model value reaches the 2/3 quorum —
// more Byzantine replicas than the deployment tolerates.
var ErrNoModelQuorum = errors.New("ps: no 2/3 model quorum among server replicas")

// NewReplicated validates and assembles the replicated deployment.
func NewReplicated(cfg ReplicatedConfig) (*ReplicatedCluster, error) {
	if cfg.ModelFactory == nil || cfg.GAR == nil || cfg.OptimizerFactory == nil {
		return nil, errors.New("ps: replicated config missing required field")
	}
	if cfg.ServerReplicas < 1 {
		return nil, fmt.Errorf("ps: need at least one server replica, got %d", cfg.ServerReplicas)
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("ps: at least one worker is required")
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("ps: batch size %d", cfg.Batch)
	}
	byz := map[int]bool{}
	for _, r := range cfg.ByzantineReplicas {
		if r < 0 || r >= cfg.ServerReplicas {
			return nil, fmt.Errorf("ps: byzantine replica %d out of range", r)
		}
		byz[r] = true
	}
	if 3*len(byz) >= cfg.ServerReplicas {
		return nil, fmt.Errorf("ps: %d Byzantine replicas need R >= %d, got %d",
			len(byz), 3*len(byz)+1, cfg.ServerReplicas)
	}
	c := &ReplicatedCluster{cfg: cfg, byzReplica: byz, ws: gar.NewWorkspace()}
	c.replicas = make([]*serverReplica, cfg.ServerReplicas)
	for r := range c.replicas {
		model := cfg.ModelFactory()
		c.replicas[r] = &serverReplica{
			params:    model.ParamsVector(),
			optimizer: cfg.OptimizerFactory(),
			model:     model,
		}
	}
	c.workers = make([]*nn.Network, len(cfg.Workers))
	c.rngs = make([]*rand.Rand, len(cfg.Workers))
	for i := range cfg.Workers {
		c.workers[i] = cfg.ModelFactory()
		c.rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
	}
	return c, nil
}

// paramsFingerprint hashes the exact bit pattern of a parameter vector
// (NaN payloads canonicalised) for the workers' majority vote.
func paramsFingerprint(v tensor.Vector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		if math.IsNaN(x) {
			bits = math.Float64bits(math.NaN())
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Step runs one synchronous round of the replicated deployment.
func (c *ReplicatedCluster) Step() (*StepResult, error) {
	res := &StepResult{Step: c.step}
	r := c.cfg.ServerReplicas
	quorum := 2*r/3 + 1

	// Proposal phase: every replica broadcasts its model; Byzantine
	// replicas broadcast fresh garbage.
	proposals := make([]tensor.Vector, r)
	byzRng := rand.New(rand.NewSource(c.cfg.Seed ^ int64(c.step)*7919))
	for i, rep := range c.replicas {
		if c.byzReplica[i] {
			garbage := tensor.NewVector(rep.params.Dim())
			for j := range garbage {
				garbage[j] = byzRng.NormFloat64() * 1e6
			}
			proposals[i] = garbage
			continue
		}
		proposals[i] = rep.params
	}

	// Vote phase: workers adopt the value proposed by > 2/3 of replicas.
	counts := map[uint64][]int{}
	for i, p := range proposals {
		fp := paramsFingerprint(p)
		counts[fp] = append(counts[fp], i)
	}
	var agreed tensor.Vector
	//aggrevet:ordered quorum > 2n/3, so at most one fingerprint bucket can reach it; the pick is order-independent
	for _, idxs := range counts {
		if len(idxs) >= quorum {
			agreed = proposals[idxs[0]]
			break
		}
	}
	if agreed == nil {
		return nil, ErrNoModelQuorum
	}
	// Snapshot: `agreed` aliases one replica's live parameter buffer, and
	// the descent phase below mutates replica buffers in sequence.
	agreed = agreed.Clone()

	// Compute phase (honest gradients in parallel, as in Cluster.Step).
	n := len(c.cfg.Workers)
	honest := make([]tensor.Vector, n)
	losses := make([]float64, n)
	hasLoss := make([]bool, n)
	var wg sync.WaitGroup
	for i := range c.cfg.Workers {
		w := &c.cfg.Workers[i]
		if w.Silent || w.Sampler == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replica := c.workers[i]
			replica.SetParamsVector(agreed)
			x, y := c.cfg.Workers[i].Sampler.Sample(c.cfg.Batch)
			loss, grad := replica.Gradient(x, y)
			honest[i] = grad
			losses[i] = loss
			hasLoss[i] = true
		}(i)
	}
	wg.Wait()

	var received []tensor.Vector
	for i := range c.cfg.Workers {
		if honest[i] != nil {
			received = append(received, honest[i])
		}
		if hasLoss[i] {
			res.Loss += losses[i]
		}
	}
	if len(received) > 0 {
		res.Loss /= float64(len(received))
	}
	res.Received = len(received)

	// Descent phase: every correct replica applies the same deterministic
	// GAR + optimizer, so they stay in lockstep.
	agg, err := gar.AggregateInto(c.ws, c.cfg.GAR, received)
	if err != nil {
		if errors.Is(err, gar.ErrTooFewWorkers) || errors.Is(err, gar.ErrNoGradients) {
			res.Skipped = true
			c.step++
			return res, nil
		}
		return nil, fmt.Errorf("ps: replicated aggregation at step %d: %w", c.step, err)
	}
	for i, rep := range c.replicas {
		if c.byzReplica[i] {
			continue // its state is irrelevant; it lies anyway
		}
		// Each replica owns its params; apply the shared gradient.
		copy(rep.params, agreed)
		rep.optimizer.Step(c.step, rep.params, agg)
		rep.model.SetParamsVector(rep.params)
	}
	c.step++
	return res, nil
}

// Model returns the evaluation model of the first correct replica.
func (c *ReplicatedCluster) Model() *nn.Network {
	for i, rep := range c.replicas {
		if !c.byzReplica[i] {
			return rep.model
		}
	}
	return c.replicas[0].model
}

// CorrectReplicasAgree reports whether all correct replicas hold
// bit-identical parameters (the state-machine-replication invariant).
func (c *ReplicatedCluster) CorrectReplicasAgree() bool {
	var first tensor.Vector
	for i, rep := range c.replicas {
		if c.byzReplica[i] {
			continue
		}
		if first == nil {
			first = rep.params
			continue
		}
		if paramsFingerprint(rep.params) != paramsFingerprint(first) {
			return false
		}
	}
	return true
}

// StepCount returns the number of rounds run.
func (c *ReplicatedCluster) StepCount() int { return c.step }
