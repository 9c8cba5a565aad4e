package cluster

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

// churnDeployment builds the 7-worker TCP fixture for the churn tests: the
// Byzantine-matrix task with a crash/rejoin schedule layered on.
func churnDeployment(t *testing.T, rule gar.GAR, byz map[int]string, churn ps.ChurnConfig, seed int64) (*TCPCluster, *data.Dataset, func() *nn.Network) {
	t.Helper()
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	train, test := ds.Split(0.8)
	factory := func() *nn.Network {
		return nn.NewMLP(10, []int{16}, 3, rand.New(rand.NewSource(51)))
	}
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:         "127.0.0.1:0",
		ModelFactory: factory,
		Workers:      7,
		GAR:          rule,
		Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.15}},
		Batch:        32,
		Train:        train,
		Byzantine:    byz,
		Churn:        churn,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, test, factory
}

// churnExpectation replays the schedule the way both endpoints do and returns
// the exact counter totals a run must report: crashes, rejoins, and the
// rounds where live membership falls below minWorkers (0 disables the bound).
func churnExpectation(churn ps.ChurnConfig, seed int64, steps, n, minWorkers int) (crashes, rejoins, below int) {
	timelines := make([]*ps.ChurnTimeline, n)
	for w := range timelines {
		timelines[w] = churn.Timeline(seed, w)
	}
	for s := 0; s < steps; s++ {
		live := 0
		for w := 0; w < n; w++ {
			switch timelines[w].Phase(s) {
			case ps.ChurnCrash:
				crashes++
			case ps.ChurnRejoin:
				rejoins++
				live++
			case ps.ChurnLive:
				live++
			}
		}
		if minWorkers > 0 && live < minWorkers {
			below++
		}
	}
	return crashes, rejoins, below
}

// TestTCPClusterChurnConvergence is the tentpole's end-to-end cell: a churn
// schedule crashes workers mid-run (abrupt socket teardown), they reconnect
// through the backoff dialer at their scheduled rejoin rounds, and training
// under multi-krum with a Byzantine worker still converges. The crash/rejoin
// counters reported by StepResults must equal the independent schedule
// replay exactly — they are pure functions of the seed, not of socket
// timing.
func TestTCPClusterChurnConvergence(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.03, DownSteps: 2, MaxRejoins: 5}
	const seed, steps = 13, 100
	rule := gar.NewMultiKrum(1)
	minWorkers := rule.MinWorkers()
	wantCrashes, wantRejoins, wantBelow := churnExpectation(churn, seed, steps, 7, minWorkers)
	if wantCrashes == 0 || wantRejoins == 0 {
		t.Fatalf("dead fixture: schedule has %d crashes / %d rejoins", wantCrashes, wantRejoins)
	}
	if wantBelow != 0 {
		t.Fatalf("fixture drift: convergence cell must stay above the safety bound, got %d below-bound rounds", wantBelow)
	}

	cl, test, factory := churnDeployment(t, rule, map[int]string{6: "reversed"}, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var crashes, rejoins, attempts, below int
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		crashes += res.Crashes
		rejoins += res.Rejoins
		attempts += res.ReconnectAttempts
		if res.BelowBound {
			below++
		}
	}
	if crashes != wantCrashes || rejoins != wantRejoins || below != wantBelow {
		t.Fatalf("counters diverge from schedule replay: crashes %d (want %d), rejoins %d (want %d), belowBound %d (want %d)",
			crashes, wantCrashes, rejoins, wantRejoins, below, wantBelow)
	}
	if attempts != rejoins {
		t.Fatalf("reconnect attempts %d != rejoins %d: a scheduled reconnect should dial exactly once", attempts, rejoins)
	}
	params := cl.Params()
	if !params.IsFinite() {
		t.Fatal("non-finite parameters after churn run")
	}
	model := factory()
	model.SetParamsVector(params)
	if acc := model.Accuracy(test.X, test.Y); acc < 0.7 {
		t.Fatalf("churn run converged to accuracy %v, want >= 0.7", acc)
	}
}

// TestTCPClusterChurnBelowBound forces live membership under multi-krum's
// 2f+3 safety bound: those rounds must be skipped explicitly (BelowBound +
// Skipped, GAR never consulted) rather than aggregated unsafely or
// deadlocked, and the skip count must match the schedule replay.
func TestTCPClusterChurnBelowBound(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: 2}
	const seed, steps = 13, 30
	rule := gar.NewMultiKrum(1)
	_, _, wantBelow := churnExpectation(churn, seed, steps, 7, rule.MinWorkers())
	if wantBelow == 0 {
		t.Fatal("dead fixture: schedule never falls below the safety bound")
	}

	cl, _, _ := churnDeployment(t, rule, nil, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	below := 0
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.BelowBound {
			if !res.Skipped {
				t.Fatalf("step %d: below-bound round not marked skipped", i)
			}
			below++
		}
	}
	if below != wantBelow {
		t.Fatalf("belowBound rounds %d, want %d from schedule replay", below, wantBelow)
	}
	if !cl.Params().IsFinite() {
		t.Fatal("non-finite parameters after below-bound run")
	}
}

// TestTCPClusterChurnBroadcastSetStaysBounded is the dead-connection leak
// regression: a long churn run crashes and rejoins workers dozens of times,
// and each crash's connection must leave the broadcast set once its reader
// reports it, so the set never holds more than one connection per worker.
// Kept, every dead connection would cost every later round a write.
func TestTCPClusterChurnBroadcastSetStaysBounded(t *testing.T) {
	const seed, steps, workers = 13, 320, 7
	churn := ps.ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: steps}
	_, wantRejoins, _ := churnExpectation(churn, seed, steps, workers, 0)
	if wantRejoins < 2*workers {
		t.Fatalf("dead fixture: only %d rejoins scheduled over %d rounds", wantRejoins, steps)
	}

	cl, _, _ := churnDeployment(t, gar.NewMultiKrum(1), nil, churn, seed)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rejoins := 0
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		rejoins += res.Rejoins
	}
	if rejoins != wantRejoins {
		t.Fatalf("rejoins %d, want %d from schedule replay", rejoins, wantRejoins)
	}
	if got := len(cl.conns); got > workers {
		t.Fatalf("broadcast set holds %d connections after %d rounds and %d rejoins, want <= %d workers",
			got, steps, rejoins, workers)
	}
}

// TestTCPClusterChurnAllDownRoundSkips drives a schedule under which every
// worker is down at once. Their dead connections have left the broadcast
// set, so the broadcast reaches nobody, and that is the schedule, not a
// failure: the round is skipped with nothing received, as on the UDP
// backend, and the run continues once the workers rejoin.
func TestTCPClusterChurnAllDownRoundSkips(t *testing.T) {
	const seed, steps, workers = 19, 40, 3
	churn := ps.ChurnConfig{Rate: 0.4, DownSteps: 4, MaxRejoins: steps}
	allDown := map[int]bool{}
	twoInARow := false
	timelines := make([]*ps.ChurnTimeline, workers)
	for w := range timelines {
		timelines[w] = churn.Timeline(seed, w)
	}
	for s := 0; s < steps; s++ {
		down := 0
		for _, tl := range timelines {
			if tl.Phase(s) == ps.ChurnDown {
				down++
			}
		}
		if down == workers {
			allDown[s] = true
			twoInARow = twoInARow || allDown[s-1]
		}
	}
	// The second of two all-down rounds is the one that used to fail: by
	// then no write to the dead connections succeeds.
	if !twoInARow {
		t.Fatal("dead fixture: the schedule never has every worker down for two rounds in a row")
	}

	ds := data.SyntheticFeatures(120, 10, 3, 50)
	ds.MinMaxScale()
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr: "127.0.0.1:0",
		ModelFactory: func() *nn.Network {
			return nn.NewMLP(10, []int{8}, 3, rand.New(rand.NewSource(51)))
		},
		Workers:   workers,
		GAR:       gar.Average{},
		Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:     16,
		Train:     ds,
		Churn:     churn,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < steps; i++ {
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if allDown[i] && (!res.Skipped || res.Received != 0) {
			t.Fatalf("step %d, every worker down: skipped=%v received=%d, want a skipped empty round",
				i, res.Skipped, res.Received)
		}
	}
}

// TestTCPClusterChurnDeterministicRounds pins reproducibility under churn:
// same seed, same schedule, bit-identical parameters; a different seed takes
// a different trajectory.
func TestTCPClusterChurnDeterministicRounds(t *testing.T) {
	churn := ps.ChurnConfig{Rate: 0.05, DownSteps: 2, MaxRejoins: 3}
	const steps = 40
	run := func(seed int64) tensor.Vector {
		cl, _, _ := churnDeployment(t, gar.NewMultiKrum(1), nil, churn, seed)
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < steps; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		return cl.Params()
	}
	a, b, c := run(13), run(13), run(14)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same seed, same churn schedule: parameters diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters: churn seed not threading")
	}
}

// TestTCPClusterChurnGuards pins the loud construction-time incompatibility
// errors: churn × async, churn × unresponsive workers, churn × informed
// attacks, and malformed churn parameters.
func TestTCPClusterChurnGuards(t *testing.T) {
	base := func() TCPClusterConfig {
		return TCPClusterConfig{
			Addr:         "127.0.0.1:0",
			ModelFactory: func() *nn.Network { return nn.NewMLP(4, nil, 2, rand.New(rand.NewSource(1))) },
			Workers:      7,
			GAR:          gar.NewMultiKrum(1),
			Optimizer:    &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
			Batch:        4,
			Train:        data.SyntheticFeatures(40, 4, 2, 3),
			Churn:        ps.ChurnConfig{Rate: 0.1, DownSteps: 2, MaxRejoins: 1},
			Seed:         7,
		}
	}
	t.Run("async", func(t *testing.T) {
		cfg := base()
		cfg.Async = ps.AsyncConfig{Quorum: 5, Staleness: 1, SlowRate: 0.2}
		_, err := NewTCPCluster(cfg)
		if !errors.Is(err, ps.ErrChurnAsync) {
			t.Fatalf("want ps.ErrChurnAsync, got %v", err)
		}
	})
	t.Run("unresponsive", func(t *testing.T) {
		cfg := base()
		cfg.Unresponsive = map[int]bool{3: true}
		_, err := NewTCPCluster(cfg)
		if err == nil || !strings.Contains(err.Error(), "unresponsive") {
			t.Fatalf("want unresponsive × churn rejection, got %v", err)
		}
	})
	t.Run("informed attack", func(t *testing.T) {
		cfg := base()
		cfg.Byzantine = map[int]string{6: "omniscient"}
		_, err := NewTCPCluster(cfg)
		if err == nil || !strings.Contains(err.Error(), "churn") {
			t.Fatalf("want informed × churn rejection, got %v", err)
		}
	})
	t.Run("blind attack allowed", func(t *testing.T) {
		cfg := base()
		cfg.Byzantine = map[int]string{6: "reversed"}
		cl, err := NewTCPCluster(cfg)
		if err != nil {
			t.Fatalf("blind attack must be compatible with churn: %v", err)
		}
		cl.Close()
	})
	t.Run("bad rate", func(t *testing.T) {
		cfg := base()
		cfg.Churn.Rate = 1.0
		if _, err := NewTCPCluster(cfg); err == nil {
			t.Fatal("want churn rate validation error")
		}
	})
	t.Run("bad downSteps", func(t *testing.T) {
		cfg := base()
		cfg.Churn.DownSteps = 0
		if _, err := NewTCPCluster(cfg); err == nil {
			t.Fatal("want churn downSteps validation error")
		}
	})
}

// TestTCPClusterAbruptDisconnectSettlesViaRecoup is the regression test for
// a worker vanishing between receiving a broadcast and submitting its
// gradient (no churn schedule — a genuine abrupt disconnect): the reader's
// error must mark the worker dead and let the round settle through the
// recoup policy immediately, not wedge until RoundTimeout, and later rounds
// must keep training on the survivors.
func TestTCPClusterAbruptDisconnectSettlesViaRecoup(t *testing.T) {
	const crashStep = 3
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	train, _ := ds.Split(0.8)
	cl, err := NewTCPCluster(TCPClusterConfig{
		Addr:            "127.0.0.1:0",
		ModelFactory:    func() *nn.Network { return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10))) },
		Workers:         5,
		GAR:             gar.Median{},
		Optimizer:       &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Batch:           8,
		Train:           train,
		RoundTimeout:    30 * time.Second,
		Seed:            21,
		testAbruptClose: map[int]int{2: crashStep},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		start := time.Now()
		res, err := cl.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if elapsed := time.Since(start); i >= crashStep && elapsed > 5*time.Second {
			t.Fatalf("step %d took %v: abrupt disconnect wedged the round toward RoundTimeout", i, elapsed)
		}
		want := 5
		if i >= crashStep {
			want = 4 // DropGradient recoup: the dead slot is dropped
		}
		if res.Received != want {
			t.Fatalf("step %d received %d gradients, want %d", i, res.Received, want)
		}
	}
	if !cl.Params().IsFinite() {
		t.Fatal("non-finite parameters after abrupt-disconnect run")
	}
}
