package attack

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"aggregathor/internal/gar"
	"aggregathor/internal/tensor"
)

func testCtx(rng *rand.Rand, nHonest, d int) *Context {
	honest := make([]tensor.Vector, nHonest)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = 1 + rng.NormFloat64()*0.1
		}
		honest[i] = v
	}
	var own tensor.Vector
	if nHonest > 0 {
		own = honest[0].Clone()
	}
	return &Context{
		Step:   3,
		Honest: honest,
		Own:    own,
		N:      nHonest + 2,
		F:      2,
		Dim:    d,
		Rng:    rng,
	}
}

func TestRandomForge(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(1)), 5, 16)
	v := Random{}.Forge(ctx)
	if v.Dim() != 16 {
		t.Fatalf("dim %d, want 16", v.Dim())
	}
	if v.Norm() < 10 {
		t.Fatalf("random attack suspiciously small: %v", v.Norm())
	}
}

func TestReversedForge(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(2)), 5, 8)
	v := Reversed{Magnitude: 10}.Forge(ctx)
	for j := range v {
		if v[j] != -10*ctx.Own[j] {
			t.Fatalf("coord %d: got %v, want %v", j, v[j], -10*ctx.Own[j])
		}
	}
}

func TestReversedWithoutOwnFallsBackToMean(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(3)), 4, 4)
	ctx.Own = nil
	v := Reversed{Magnitude: 1}.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	for j := range v {
		if math.Abs(v[j]+mean[j]) > 1e-12 {
			t.Fatalf("coord %d: got %v, want %v", j, v[j], -mean[j])
		}
	}
}

func TestReversedDoesNotMutateOwn(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(4)), 3, 4)
	before := ctx.Own.Clone()
	Reversed{}.Forge(ctx)
	for j := range before {
		if ctx.Own[j] != before[j] {
			t.Fatal("Own mutated by Reversed")
		}
	}
}

func TestNegativeSum(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(5)), 3, 4)
	v := NegativeSum{}.Forge(ctx)
	want := tensor.NewVector(4)
	for _, g := range ctx.Honest {
		want.Add(g)
	}
	for j := range v {
		if math.Abs(v[j]+want[j]) > 1e-12 {
			t.Fatalf("coord %d mismatch", j)
		}
	}
}

func TestNonFiniteModes(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(6)), 2, 8)
	cases := []struct {
		mode  string
		check func(float64) bool
	}{
		{"", math.IsNaN},
		{"nan", math.IsNaN},
		{"+inf", func(x float64) bool { return math.IsInf(x, 1) }},
		{"-inf", func(x float64) bool { return math.IsInf(x, -1) }},
		{"mixed", func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }},
	}
	for _, tc := range cases {
		t.Run("mode="+tc.mode, func(t *testing.T) {
			v := NonFinite{Mode: tc.mode}.Forge(ctx)
			for j, x := range v {
				if !tc.check(x) {
					t.Fatalf("coord %d = %v does not match mode %q", j, x, tc.mode)
				}
			}
		})
	}
}

func TestMimicCopiesTarget(t *testing.T) {
	ctx := testCtx(rand.New(rand.NewSource(7)), 4, 4)
	v := Mimic{Target: 2}.Forge(ctx)
	for j := range v {
		if v[j] != ctx.Honest[2][j] {
			t.Fatal("mimic did not copy target")
		}
	}
	v[0] = 999
	if ctx.Honest[2][0] == 999 {
		t.Fatal("mimic aliases the honest gradient")
	}
}

func TestLittleIsEnoughStaysNearMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ctx := testCtx(rng, 10, 16)
	v := LittleIsEnough{Z: 1.5}.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	// Shift must be bounded by z*sigma per coordinate (sigma ~ 0.1).
	for j := range v {
		if math.Abs(v[j]-mean[j]) > 1.5*0.5 {
			t.Fatalf("coord %d shifted too far: %v vs %v", j, v[j], mean[j])
		}
	}
}

// The headline threat: the omniscient attack defeats plain averaging and
// meaningfully shifts a weak GAR's target coordinate, while BULYAN's
// coordinate-wise phase pins the output to the honest range.
func TestOmniscientSelectedByKrumButBoundedByBulyan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, f, d := 19, 4, 64
	honest := make([]tensor.Vector, n-f)
	for i := range honest {
		v := tensor.NewVector(d)
		for j := range v {
			v[j] = 1 + rng.NormFloat64()*0.2
		}
		honest[i] = v
	}
	ctx := &Context{Honest: honest, N: n, F: f, Dim: d, Rng: rng}
	atk := Omniscient{TargetCoord: 0}
	grads := append([]tensor.Vector{}, honest...)
	for i := 0; i < f; i++ {
		grads = append(grads, atk.Forge(ctx))
	}

	// The forged vector is close enough to the crowd to be selected by
	// MULTI-KRUM at least sometimes (it matches the mean in d-1 coords).
	mk := gar.NewMultiKrum(f)
	sel, err := mk.Select(grads)
	if err != nil {
		t.Fatal(err)
	}
	byzSelected := 0
	for _, idx := range sel {
		if idx >= n-f {
			byzSelected++
		}
	}
	if byzSelected == 0 {
		t.Fatal("omniscient attack was never selected by Multi-Krum; attack lost its leeway")
	}

	// Bulyan bounds the attacked coordinate to the honest range.
	bl := gar.NewBulyan(f)
	out, err := bl.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range honest {
		lo = math.Min(lo, g[0])
		hi = math.Max(hi, g[0])
	}
	if out[0] < lo || out[0] > hi {
		t.Fatalf("Bulyan coordinate 0 escaped honest range: %v not in [%v, %v]", out[0], lo, hi)
	}

	// Multi-Krum's output on the attacked coordinate is dragged below the
	// honest minimum scaled by the attack budget — the weak-resilience gap.
	weak, err := mk.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("honest range [%v, %v], multi-krum=%v bulyan=%v", lo, hi, weak[0], out[0])
}

func TestOmniscientRotatingTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ctx := testCtx(rng, 6, 8)
	atk := Omniscient{TargetCoord: -1}
	ctx.Step = 5
	v := atk.Forge(ctx)
	mean := tensor.Mean(ctx.Honest)
	// Only coordinate 5%8 = 5 deviates from the mean.
	for j := range v {
		if j == 5 {
			if v[j] == mean[j] {
				t.Fatal("target coordinate not attacked")
			}
			continue
		}
		if math.Abs(v[j]-mean[j]) > 1e-12 {
			t.Fatalf("non-target coordinate %d deviated", j)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{
		"random", "reversed", "negative-sum", "non-finite",
		"mimic", "little-is-enough", "omniscient",
	} {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("Name mismatch for %q: %q", name, a.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("want error for unknown attack")
	}
	names := Names()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 attacks, got %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("random", func() Attack { return Random{} })
}

func TestAttacksEmptyHonestSafe(t *testing.T) {
	ctx := &Context{Dim: 4, Rng: rand.New(rand.NewSource(11))}
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		v := a.Forge(ctx)
		if v.Dim() != 4 {
			t.Fatalf("%s: dim %d, want 4", name, v.Dim())
		}
	}
}

// TestUninformedAttacksIgnoreHonest pins the contract the socket backends
// rely on to skip the honest-peer oracle: an attack that does not implement
// Informed (or reports RequiresHonest false) must forge the same bits
// whether or not Context.Honest is populated, as long as Own is set and the
// Rng is seeded the same. Each attack gets fresh instances per side, so
// stateful attacks are compared over several steps.
func TestUninformedAttacksIgnoreHonest(t *testing.T) {
	var blind []string
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if inf, ok := a.(Informed); ok && inf.RequiresHonest() {
			continue
		}
		blind = append(blind, name)
		withHonest, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		withoutHonest, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			full := testCtx(rand.New(rand.NewSource(int64(40+step))), 6, 32)
			full.Step = step
			full.Rng = rand.New(rand.NewSource(7))
			bare := *full
			bare.Honest = nil
			bare.Rng = rand.New(rand.NewSource(7))
			a, b := withHonest.Forge(full), withoutHonest.Forge(&bare)
			if a.Dim() != b.Dim() {
				t.Fatalf("%s step %d: dim %d with Honest, %d without", name, step, a.Dim(), b.Dim())
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("%s step %d coord %d: %v with Honest, %v without", name, step, j, a[j], b[j])
				}
			}
		}
	}
	for _, want := range []string{"random", "reversed", "non-finite"} {
		if !slices.Contains(blind, want) {
			t.Fatalf("attack %q expected to be uninformed; uninformed set %v", want, blind)
		}
	}
}
