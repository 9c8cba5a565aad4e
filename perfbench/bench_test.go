package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
)

func randomGrads(n, d int, seed int64) []tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	grads := make([]tensor.Vector, n)
	for i := range grads {
		grads[i] = tensor.NewVector(d)
		for j := range grads[i] {
			grads[i][j] = rng.NormFloat64()
		}
	}
	return grads
}

func TestTraceGARExposesByzantineInfoOnlyWhenWrappedRuleDoes(t *testing.T) {
	rec := newRecorder()
	if _, ok := traceGAR(gar.Median{}, rec).(gar.ByzantineInfo); ok {
		t.Fatal("traced median implements gar.ByzantineInfo; median does not")
	}
	for _, rule := range []gar.GAR{gar.NewBulyan(4), gar.NewMultiKrum(2), gar.TrimmedMean{Beta: 3}} {
		info, ok := traceGAR(rule, rec).(gar.ByzantineInfo)
		if !ok {
			t.Fatalf("traced %s hides gar.ByzantineInfo", rule.Name())
		}
		want := rule.(gar.ByzantineInfo)
		if info.F() != want.F() || info.MinWorkers() != want.MinWorkers() {
			t.Errorf("traced %s: F/MinWorkers %d/%d, want %d/%d",
				rule.Name(), info.F(), info.MinWorkers(), want.F(), want.MinWorkers())
		}
	}

	// ps.New consults ByzantineInfo for its worker check; a traced median
	// must build exactly like a plain one.
	ds := data.SyntheticFeatures(60, 4, 2, 1)
	workers := []ps.WorkerConfig{{Sampler: data.NewUniformSampler(ds, 1)}, {Sampler: data.NewUniformSampler(ds, 2)}}
	_, err := ps.New(ps.Config{
		ModelFactory: func() *nn.Network { return nn.NewMLP(4, []int{3}, 2, rand.New(rand.NewSource(1))) },
		Workers:      workers,
		GAR:          traceGAR(gar.Median{}, rec),
		Optimizer:    momentum(),
		Batch:        4,
	})
	if err != nil {
		t.Fatalf("ps.New with a traced median: %v", err)
	}
}

func TestTraceGARReachesWorkspaceKernel(t *testing.T) {
	grads := randomGrads(11, 300, 7)
	rule := gar.NewMultiKrum(2)
	rec := newRecorder()
	traced := traceGAR(rule, rec)

	var plainWS, tracedWS gar.Workspace
	want, err := gar.AggregateInto(&plainWS, rule, grads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gar.AggregateInto(&tracedWS, traced, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("coordinate %d: traced %v, plain %v", i, got[i], want[i])
		}
	}
	// The workspace kernel returns a vector aliasing the workspace, reused
	// by the next call; a fallback to the allocating Aggregate would not.
	again, err := gar.AggregateInto(&tracedWS, traced, grads)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &got[0] {
		t.Fatal("traced aggregation did not run through the workspace")
	}
	if len(rec.spans) != 2 || rec.spans[0].Name != "gar" || rec.spans[0].Bytes != 11*300*8 {
		t.Fatalf("spans %+v, want two gar spans of %d bytes", rec.spans, 11*300*8)
	}
	// The warmed workspace kernel allocates nothing, and the span must
	// say so: gar.allocs_per_call counts the call alone.
	if rec.spans[1].Allocs != 0 {
		t.Fatalf("steady-state traced aggregation recorded %d allocations, want 0", rec.spans[1].Allocs)
	}

	// Without a workspace the wrapper falls back to the rule's Aggregate,
	// as the plain rule does.
	fresh, err := traced.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if &fresh[0] == &got[0] {
		t.Fatal("Aggregate returned the workspace vector")
	}
}

func TestTracedOptimizerForwards(t *testing.T) {
	rec := newRecorder()
	plain, traced := momentum(), (boundaries{rec: rec}).opt(momentum())
	p1, p2 := tensor.Vector{1, 2, 3}, tensor.Vector{1, 2, 3}
	g := tensor.Vector{0.5, -1, 2}
	for step := 0; step < 3; step++ {
		plain.Step(step, p1, g)
		traced.Step(step, p2, g)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("params %v, want %v", p2, p1)
		}
	}
	if traced.Name() != plain.Name() || len(rec.spans) != 3 {
		t.Fatalf("name %q, %d spans", traced.Name(), len(rec.spans))
	}
	var _ opt.Optimizer = traced
}

func TestRoundDigestCoversParamsAndCounters(t *testing.T) {
	params := tensor.Vector{0.1, -2, 3.5}
	results := []ps.StepResult{{Received: 7}, {Received: 6, Skipped: true, BelowBound: true}}
	base := roundDigest(params, results)
	if roundDigest(params.Clone(), append([]ps.StepResult(nil), results...)) != base {
		t.Fatal("digest is not a function of its inputs")
	}
	flipped := params.Clone()
	flipped[1] = math.Float64frombits(math.Float64bits(flipped[1]) ^ 1)
	if roundDigest(flipped, results) == base {
		t.Error("digest ignores a one-bit parameter change")
	}
	changed := append([]ps.StepResult(nil), results...)
	changed[0].Crashes = 1
	if roundDigest(params, changed) == base {
		t.Error("digest ignores the StepResult counters")
	}
}

func TestDigestRecordFlagsADifferentDigestForTheSameSeed(t *testing.T) {
	dir := t.TempDir()
	if err := digestRecord(dir, "w-seed1", "aa"); err != nil {
		t.Fatal(err)
	}
	if err := digestRecord(dir, "w-seed1", "aa"); err != nil {
		t.Fatalf("same digest: %v", err)
	}
	if err := digestRecord(dir, "w-seed2", "bb"); err != nil {
		t.Fatalf("other seed: %v", err)
	}
	if err := digestRecord(dir, "w-seed1", "bb"); err == nil {
		t.Fatal("a different digest for the same seed was accepted")
	}
}

func TestTailKeepsTenSamplesBeyondThePercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		value    float64
		pct      float64
		computed bool
	}{
		{n: 100, value: 90, pct: 90, computed: true},
		{n: 1000, value: 990, pct: 99, computed: true},
		{n: 11, value: 1, pct: 100.0 / 11, computed: true},
		{n: 10, value: 10, pct: 100, computed: false},
		{n: 1, value: 1, pct: 100, computed: false},
	} {
		v, pct, ok := tail(seq(tc.n), tailMinBeyond)
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || ok != tc.computed {
			t.Errorf("n=%d: tail %v p%v ok=%v, want %v p%v ok=%v", tc.n, v, pct, ok, tc.value, tc.pct, tc.computed)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if ok && beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if _, _, ok := tail(nil, tailMinBeyond); ok {
		t.Error("tail of no samples reported a percentile")
	}
}

// TestTracedEpisodesMatchUntraced runs short episodes of the in-process and
// churning TCP workloads with and without the boundary wrappers: the same
// digest proves the wrappers inert, including for the churn below-bound
// gate that reads gar.ByzantineInfo.
func TestTracedEpisodesMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets and trains")
	}
	small := *workloads["inproc-bulyan"]
	small.task, small.rounds = featuresMLP, 6
	churn := *workloads["tcp-churn"]
	churn.rounds = 40
	for name, w := range map[string]*roundWorkload{"inproc-bulyan": &small, "tcp-churn": &churn} {
		plain, err := runEpisode(w, w.start, 3, boundaries{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := newRecorder()
		traced, err := runEpisode(w, w.start, 3, boundaries{rec: rec})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if plain.failed != 0 || traced.failed != 0 {
			t.Fatalf("%s: failures %v / %v", name, plain.errs, traced.errs)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, traced.digest, plain.digest)
		}
		st := summarise(rec.spans)
		if len(st.rounds) != w.rounds || len(st.calls["gar"]) == 0 || len(st.calls["opt"]) == 0 {
			t.Errorf("%s: %d rounds, %d gar and %d opt spans", name, len(st.rounds), len(st.calls["gar"]), len(st.calls["opt"]))
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		table  []metricDef
	}{{bench.EndToEnd, endToEndMetrics}, {bench.PerLayer, perLayerMetrics}} {
		if len(tc.listed) != len(tc.table) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(tc.listed), len(tc.table))
		}
		for i, m := range tc.listed {
			if m.Name != tc.table[i].name || m.Unit != tc.table[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					i, m.Name, m.Unit, tc.table[i].name, tc.table[i].unit)
			}
		}
	}
}
