package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// meanAroundMedianReference is the kernel before the sorted-window pass:
// the same median, then ClosestToPivotInto on the unsorted column, summing
// the finite picks in the index selection's order (ascending distance,
// ties by column index).
func meanAroundMedianReference(col []float64, keep int) float64 {
	tmp := append([]float64(nil), col...)
	nn := moveNaNsFront(tmp)
	clean := tmp[nn:]
	m := len(clean)
	if m == 0 {
		return 0
	}
	var med float64
	if nn == 0 && m <= maxSortNet {
		ApplySortNet(tmp, SortNetPairs(m))
		if m%2 == 1 {
			med = tmp[m/2]
		} else {
			med = midpoint(tmp[m/2-1], tmp[m/2])
		}
	} else {
		med = medianCleanSelect(clean)
	}
	if math.IsNaN(med) {
		return 0
	}
	var s float64
	var cnt int
	for _, idx := range ClosestToPivot(col, med, keep) {
		if x := col[idx]; !math.IsNaN(x) && !math.IsInf(x, 0) {
			s += x
			cnt++
		}
	}
	if cnt == 0 {
		return med
	}
	return s / float64(cnt)
}

// kernelCtx builds the column-engine scratch for an n-value column.
func kernelCtx(n int) *ColumnKernelCtx {
	ctx := &ColumnKernelCtx{
		Col:  make([]float64, n),
		Tmp:  make([]float64, n),
		Dist: make([]float64, n),
		Idx:  make([]int, n),
	}
	if n <= maxSortNet {
		ctx.Net = SortNetPairs(n)
	}
	return ctx
}

// checkMeanAroundMedianKernel compares the kernel against the reference
// bit-for-bit for one column and keep count.
func checkMeanAroundMedianKernel(t *testing.T, col []float64, keep int) {
	t.Helper()
	want := meanAroundMedianReference(col, keep)
	ctx := kernelCtx(len(col))
	copy(ctx.Col, col)
	got := MeanAroundMedianKernel(ctx, 0, keep)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("column %v keep %d: kernel %v (%#x), reference %v (%#x)",
			col, keep, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// meanAroundMedianColumns are the adversarial columns of the window
// kernel: every tie the sorted copy cannot break by index, every value
// class the distance saturation touches. They also seed the fuzz corpus.
func meanAroundMedianColumns() [][]float64 {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	return [][]float64{
		// Symmetric ties med±δ, in both index orders.
		{1, 2, 3},
		{3, 2, 1},
		{0.5, 1, 1.5, 1, 0.5, 1.5, 1},
		{1, 2},                // even length: the midpoint is equidistant
		{3, -10, 3, 1},        // ... and a third member of that class
		{1, 3, 1, 3, -10, 10}, // ... and a fourth
		{-1, 4, 1, -4, 0},
		// Same-side rounding ties: 1 and 2 are both 1e20 from the median.
		{1, 2, 1e20, 1e20, 1e20},
		{2, 1e20, 1, 1e20, 1e20},
		{1e20, 2, 1e20, 1, 1e20, 3, 0.5},
		// Signed zeros.
		{negZero, 0, negZero, 0, 1},
		{0, negZero, 0},
		{negZero, negZero, 0, 0},
		{-1, negZero, 0, 1, negZero},
		// Infinities, infinite medians, finite values at infinite distance.
		{-inf, 1, 2, 3, inf},
		{-inf, -inf, -inf, 1, 2},
		{inf, inf, inf, -1, -2},
		{-inf, -inf, inf, inf},
		{-inf, 5},
		{-math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 0},
		{-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, inf, -inf},
		// Subnormals: halving rounds, so the even midpoint can leave its
		// two middles.
		{sub, sub},
		{sub, sub, 3 * sub, 0, negZero, 2 * sub},
		{-sub, sub, -sub, sub},
		// All-equal columns: dead-ReLU zeros and repeated forgeries.
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25},
		{7, 7, 7, 7, -3, -3, -3, -3, 1},
		// NaN-laced columns (the selection path).
		{nan, 1, 2, 3, nan},
		{nan, nan, nan},
		{nan, -inf, inf, 0, nan, 1},
		// A single value.
		{42},
	}
}

// TestMeanAroundMedianKernelMatchesReference pins the sorted-window pass
// to the index-selection reference bit-for-bit: the adversarial columns in
// every rotation with every keep from 1 to n, then random columns drawn
// from a small value set (so ties are everywhere), Gaussians with
// non-finite entries, and widths past the sorting network.
func TestMeanAroundMedianKernelMatchesReference(t *testing.T) {
	for _, col := range meanAroundMedianColumns() {
		n := len(col)
		rot := make([]float64, n)
		for shift := 0; shift < n; shift++ {
			for i := range col {
				rot[i] = col[(i+shift)%n]
			}
			for keep := 1; keep <= n; keep++ {
				checkMeanAroundMedianKernel(t, rot, keep)
			}
		}
	}
	rng := rand.New(rand.NewSource(61))
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	small := []float64{-2, -1, negZero, 0, 0.5, 1, 2, 1e20, -inf, inf}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(23)
		if trial%50 == 0 {
			n = maxSortNet + 1 + rng.Intn(8)
		}
		col := make([]float64, n)
		for i := range col {
			switch mode := trial % 4; {
			case mode == 0:
				col[i] = small[rng.Intn(len(small))]
			case mode == 1 && rng.Intn(12) == 0:
				col[i] = []float64{math.NaN(), inf, -inf}[rng.Intn(3)]
			case mode == 2:
				col[i] = float64(rng.Intn(5)) / 4 // dyadic: exact midpoints
			default:
				col[i] = rng.NormFloat64()
			}
		}
		for keep := 1; keep <= n; keep++ {
			checkMeanAroundMedianKernel(t, col, keep)
		}
	}
}

// encodeKernelInput packs a fuzz input: a keep byte, then the column as
// little-endian float64 bit patterns.
func encodeKernelInput(col []float64, keep int) []byte {
	b := []byte{byte(keep)}
	for _, x := range col {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzMeanAroundMedianKernel compares the kernel with the index-selection
// reference on arbitrary bit patterns: any column of up to 64 values (the
// sorting network's range) and any keep in [1, n].
func FuzzMeanAroundMedianKernel(f *testing.F) {
	for _, col := range meanAroundMedianColumns() {
		for _, keep := range []int{1, (len(col) + 1) / 2, len(col)} {
			f.Add(encodeKernelInput(col, keep))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		n := (len(data) - 1) / 8
		if n > maxSortNet {
			n = maxSortNet
		}
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
		}
		checkMeanAroundMedianKernel(t, col, 1+int(data[0])%n)
	})
}
