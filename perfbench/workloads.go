package main

import (
	"fmt"
	"math/rand"
	"time"

	"aggregathor/internal/attack"
	"aggregathor/internal/cluster"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// trainer is the surface the closed loop drives: one round per Step, and
// the parameters the determinism digest hashes.
type trainer interface {
	Step() (*ps.StepResult, error)
	Params() tensor.Vector
	Close() error
}

// inproc adapts the in-process cluster, which holds no sockets.
type inproc struct{ *ps.Cluster }

func (inproc) Close() error { return nil }

// task is a workload's model and data: an MLP on synthetic images (MNIST
// shape) or on flat synthetic features, both generated from the seed.
type task struct {
	images  bool // SyntheticMNIST 28×28 images; flat SyntheticFeatures otherwise
	in      int
	hidden  int
	samples int
	batch   int
}

var (
	mnistMLP    = task{images: true, in: 28 * 28, hidden: 128, samples: 2000, batch: 16}
	featuresMLP = task{in: 24, hidden: 48, samples: 1200, batch: 16}
)

// generate builds the task's training set and model factory from the seed.
func (t task) generate(seed int64) (*data.Dataset, func() *nn.Network) {
	var ds *data.Dataset
	if t.images {
		ds = data.SyntheticMNIST(t.samples, seed)
	} else {
		ds = data.SyntheticFeatures(t.samples, t.in, 10, seed)
	}
	ds.MinMaxScale()
	return ds, func() *nn.Network {
		return nn.NewMLP(t.in, []int{t.hidden}, 10, rand.New(rand.NewSource(seed)))
	}
}

// dim is the model's parameter count d.
func (t task) dim() int { return t.in*t.hidden + t.hidden + t.hidden*10 + 10 }

// learningRate is the momentum-SGD step size every round workload uses.
const learningRate = 0.01

func momentum() opt.Optimizer {
	return &opt.SGD{Schedule: opt.Fixed{Rate: learningRate}, Momentum: 0.9}
}

// roundWorkload is a workload driven round by round in a closed loop: one
// goroutine calls Step back to back, for fixed-length episodes (one episode
// is one training run of `rounds` rounds on a freshly built deployment).
// Fixed episodes make every episode of a seed produce the same parameters,
// which is what the determinism digest checks.
type roundWorkload struct {
	task   task
	n, f   int
	rounds int
	// roundTimeout is the socket deployments' collection deadline, set far
	// above the observed tail; a round that reaches it counts as failed.
	// Zero for the in-process cluster, which has no deadline.
	roundTimeout time.Duration
	// codec is the wire the workload ships gradients on (in-process and
	// TCP deployments carry float64), used for the standalone transport
	// calls.
	codec transport.Codec
	// start generates the inputs from the seed, constructs the deployment
	// with the given boundaries and starts it.
	start func(w *roundWorkload, seed int64, b boundaries) (trainer, error)
	// fig4Share is the aggregation share of the round that the paper's
	// Fig. 4 reports for the workload's rule, printed beside the measured
	// gar.share.
	fig4Share float64
	// twin, when set, builds a loss-free in-process deployment of the same
	// shape whose round time transport.overhead_ms is measured against.
	twin func(w *roundWorkload, seed int64, b boundaries) (trainer, error)
}

// attackers assigns the attack to the last f workers.
func (w *roundWorkload) attackers(name string) map[int]string {
	m := map[int]string{}
	for id := w.n - w.f; id < w.n; id++ {
		m[id] = name
	}
	return m
}

// startInproc builds a ps.Cluster whose last f workers run the named attack.
func startInproc(w *roundWorkload, seed int64, rule gar.GAR, optimizer opt.Optimizer, attackName string) (trainer, error) {
	ds, factory := w.task.generate(seed)
	byz := w.attackers(attackName)
	workers := make([]ps.WorkerConfig, w.n)
	for i := range workers {
		workers[i] = ps.WorkerConfig{
			Sampler: data.NewUniformSampler(ds, ps.SamplerSeed(seed, i)),
			Seed:    seed + int64(i),
		}
		if name, ok := byz[i]; ok {
			atk, err := attack.New(name)
			if err != nil {
				return nil, err
			}
			workers[i].Attack = atk
		}
	}
	cl, err := ps.New(ps.Config{
		ModelFactory: factory,
		Workers:      workers,
		GAR:          rule,
		Optimizer:    optimizer,
		Batch:        w.task.batch,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	return inproc{cl}, nil
}

// workloads holds the round workloads; workloadNames gives every workload in
// the order BENCHMARK.json lists them. NOTES.md gives the reason for each.
var workloads = map[string]*roundWorkload{
	// Kernel-bound: n=19 at f=4 (Bulyan's n >= 4f+3 minimum) on the
	// 101,770-parameter MLP; the n·d·8 = 15.5 MB gradient set exceeds the
	// cache and the transport does nothing.
	"inproc-bulyan": {
		task: mnistMLP, n: 19, f: 4, rounds: 24, fig4Share: 0.52,
		start: func(w *roundWorkload, seed int64, b boundaries) (trainer, error) {
			return startInproc(w, seed, b.gar(gar.NewBulyan(w.f)), b.opt(momentum()), "little-is-enough")
		},
	},
	// Transport-bound: real UDP datagrams on the float32 wire with seeded
	// 10% loss and fill-random recoup (lossyMPI, §3.3). The reversed attack
	// is not informed, so Byzantine workers never recompute honest peers.
	"udp-lossy": {
		task: mnistMLP, n: 11, f: 2, rounds: 24, fig4Share: 0.27,
		roundTimeout: 5 * time.Second,
		codec:        transport.Codec{Float32: true},
		start: func(w *roundWorkload, seed int64, b boundaries) (trainer, error) {
			ds, factory := w.task.generate(seed)
			cl, err := cluster.NewUDPCluster(cluster.UDPClusterConfig{
				Addr:         "127.0.0.1:0",
				ModelFactory: factory,
				Workers:      w.n,
				GAR:          b.gar(gar.NewMultiKrum(w.f)),
				Optimizer:    b.opt(momentum()),
				Batch:        w.task.batch,
				Train:        ds,
				Codec:        w.codec,
				RoundTimeout: w.roundTimeout,
				DropRate:     0.1,
				Recoup:       transport.FillRandom,
				Byzantine:    w.attackers("reversed"),
				Seed:         seed,
			})
			if err != nil {
				return nil, err
			}
			return started(cl, cl.Start())
		},
		twin: func(w *roundWorkload, seed int64, _ boundaries) (trainer, error) {
			return startInproc(w, seed, gar.NewMultiKrum(w.f), momentum(), "reversed")
		},
	},
	// Fixed-cost-bound: a small model over TCP with deterministic worker
	// churn, so broadcast fan-out, crash/rejoin handshakes, membership
	// bookkeeping and below-bound skips dominate. Episodes are short and
	// fixed because the round cost grows with the rounds already run (see
	// NOTES.md, known defect b); the rejoin budget equals the episode
	// length, so no worker exhausts it.
	"tcp-churn": {
		task: featuresMLP, n: 7, f: 1, rounds: 150, fig4Share: 0.27,
		roundTimeout: 5 * time.Second,
		start: func(w *roundWorkload, seed int64, b boundaries) (trainer, error) {
			ds, factory := w.task.generate(seed)
			cl, err := cluster.NewTCPCluster(cluster.TCPClusterConfig{
				Addr:         "127.0.0.1:0",
				ModelFactory: factory,
				Workers:      w.n,
				GAR:          b.gar(gar.NewMultiKrum(w.f)),
				Optimizer:    b.opt(momentum()),
				Batch:        w.task.batch,
				Train:        ds,
				RoundTimeout: w.roundTimeout,
				Byzantine:    w.attackers("reversed"),
				Seed:         seed,
				Churn:        ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: w.rounds},
			})
			if err != nil {
				return nil, err
			}
			return started(cl, cl.Start())
		},
	},
}

// started returns a socket deployment whose Start returned err, releasing
// it if Start failed.
func started(tr trainer, err error) (trainer, error) {
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("start: %w", err)
	}
	return tr, nil
}

// workloadNames lists every workload, the campaign included.
var workloadNames = []string{"inproc-bulyan", "udp-lossy", "tcp-churn", campaignName}
