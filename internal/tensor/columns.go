package tensor

import (
	"math"
	"runtime"
)

// This file implements the blocked column-pass engine shared by every
// coordinate-wise aggregation rule (median, trimmed mean, NaN-mean,
// mean-around-median, Bulyan's second phase). Instead of walking all n
// vectors once per coordinate — n strided cache misses per output value —
// the engine gathers a tile of colTileCoords coordinates × n values with one
// sequential pass over each vector, then runs the per-coordinate kernel on
// the cache-resident tile. Tiles are independent, so the pass parallelises
// over fixed tile indexes with bit-identical output regardless of
// GOMAXPROCS: each output coordinate is written by exactly one kernel
// invocation on exactly the same gathered column.

const (
	// colTileCoords is the tile width: 128 coordinates × n≈19 workers × 8
	// bytes ≈ 19KB, sized to keep the gathered tile L1-resident.
	colTileCoords = 128
	// colParallelMin is the dimension below which the pass stays on the
	// calling goroutine: spawning workers costs more than the pass itself
	// and the sequential path is what the zero-allocation contract covers.
	colParallelMin = 1 << 14
)

// ColumnKernelCtx is the per-worker scratch handed to a ColumnKernel. All
// slices have length n (the number of input vectors) except Col, which is
// the gathered column itself. Kernels may freely mutate every buffer.
type ColumnKernelCtx struct {
	// Col holds the n values of the current coordinate, Col[i] = vs[i][j].
	Col []float64
	// Tmp is a second n-value buffer for kernels that need a pristine copy
	// of Col after a mutating selection (mean-around-median).
	Tmp []float64
	// Dist is distance scratch for ClosestToPivotInto.
	Dist []float64
	// Idx is index scratch for SmallestKInto / ClosestToPivotInto.
	Idx []int
	// Net is the n-input sorting network (nil when n > maxSortNet):
	// kernels sort NaN-free columns branchlessly with it.
	Net [][2]int
}

// ColumnKernel computes one output coordinate from the gathered column
// ctx.Col. arg carries the rule parameter (trim width, keep count, …) so
// kernels can be package-level functions — converting those to func values
// does not allocate, which keeps the steady-state column pass at zero heap
// allocations.
type ColumnKernel func(ctx *ColumnKernelCtx, j int, arg int) float64

// ColumnEngine owns the reusable tile and scratch buffers of a blocked
// column pass. The zero value is ready to use; buffers grow on demand and
// are retained across runs, so a warm engine performs no allocations.
// An engine must not be shared by concurrent Run calls.
type ColumnEngine struct {
	tiles []float64
	tmp   []float64
	dist  []float64
	idx   []int
	ctxs  []ColumnKernelCtx
	netN  int
	net   [][2]int
	// nets caches the sorting network per column size: composite rules
	// (generic BULYAN) cycle n every call as their candidate set shrinks,
	// and rebuilding the network on each size change would break the
	// zero-allocation contract.
	nets [][][2]int
	// pass is the parallel pass's loop body, kept here so handing it to
	// the pool allocates nothing.
	pass colPass
}

// colPass is one parallel column pass: ParallelFor runs tile t on worker
// w's tile buffer and kernel scratch.
type colPass struct {
	e      *ColumnEngine
	out    Vector
	vs     []Vector
	arg    int
	kernel ColumnKernel
}

// Do implements Loop.
func (p *colPass) Do(w, t int) {
	span := colTileCoords * len(p.vs)
	p.e.runTile(&p.e.ctxs[w], p.e.tiles[w*span:(w+1)*span], p.out, p.vs, t, p.arg, p.kernel)
}

// ensure sizes the scratch for w workers over n-vector columns.
func (e *ColumnEngine) ensure(w, n int) {
	if need := w * colTileCoords * n; cap(e.tiles) < need {
		e.tiles = make([]float64, need)
	}
	if need := w * n; cap(e.tmp) < need {
		e.tmp = make([]float64, need)
		e.dist = make([]float64, need)
		e.idx = make([]int, need)
	}
	if cap(e.ctxs) < w {
		e.ctxs = make([]ColumnKernelCtx, w)
	}
	if e.netN != n {
		e.net = nil
		if n <= maxSortNet {
			if e.nets == nil {
				e.nets = make([][][2]int, maxSortNet+1)
			}
			if e.nets[n] == nil {
				e.nets[n] = SortNetPairs(n)
			}
			e.net = e.nets[n]
		}
		e.netN = n
	}
	e.ctxs = e.ctxs[:w]
	for i := range e.ctxs {
		e.ctxs[i] = ColumnKernelCtx{
			Tmp:  e.tmp[i*n : (i+1)*n],
			Dist: e.dist[i*n : (i+1)*n],
			Idx:  e.idx[i*n : (i+1)*n],
			Net:  e.net,
		}
	}
}

// Run executes kernel over every coordinate of vs, writing out[j] for each.
// vs must be non-empty with uniform dimension len(out). When parallel is
// true and the dimension is large enough the tiles are spread across
// GOMAXPROCS goroutines; the output is bit-identical either way.
func (e *ColumnEngine) Run(out Vector, vs []Vector, arg int, kernel ColumnKernel, parallel bool) {
	d := len(out)
	n := len(vs)
	if d == 0 {
		return
	}
	nTiles := (d + colTileCoords - 1) / colTileCoords
	workers := runtime.GOMAXPROCS(0)
	if workers > nTiles {
		workers = nTiles
	}
	if !parallel || workers <= 1 || d < colParallelMin {
		e.ensure(1, n)
		for t := 0; t < nTiles; t++ {
			e.runTile(&e.ctxs[0], e.tiles[:colTileCoords*n], out, vs, t, arg, kernel)
		}
		return
	}
	e.ensure(workers, n)
	e.pass = colPass{e: e, out: out, vs: vs, arg: arg, kernel: kernel}
	ParallelFor(nTiles, workers, &e.pass)
	e.pass = colPass{} // retain no caller vectors between runs
}

// runTile gathers tile t and applies the kernel to each of its columns.
func (e *ColumnEngine) runTile(ctx *ColumnKernelCtx, tile []float64, out Vector, vs []Vector, t, arg int, kernel ColumnKernel) {
	n := len(vs)
	lo := t * colTileCoords
	hi := lo + colTileCoords
	if hi > len(out) {
		hi = len(out)
	}
	for i, v := range vs {
		blk := v[lo:hi]
		for jj, x := range blk {
			tile[jj*n+i] = x
		}
	}
	for jj := 0; jj < hi-lo; jj++ {
		ctx.Col = tile[jj*n : (jj+1)*n]
		out[lo+jj] = kernel(ctx, lo+jj, arg)
	}
}

// The shared column kernels. Each reproduces its previous sort-based
// counterpart bit-for-bit (same candidate multiset, same ascending summation
// order), which is what keeps the campaign byte-reproducibility and
// socket-parity suites unchanged across the selection rewrite.

// MedianKernel is the coordinate-wise median: the Median GAR. NaN-free
// columns (the overwhelmingly common case) sort branchlessly on the fixed
// network; NaN-laced ones fall back to the selection path.
func MedianKernel(ctx *ColumnKernelCtx, _ int, _ int) float64 {
	col := ctx.Col
	nn := moveNaNsFront(col)
	clean := col[nn:]
	m := len(clean)
	if m == 0 {
		return math.NaN()
	}
	if nn == 0 && ctx.Net != nil {
		ApplySortNet(col, ctx.Net)
		if m%2 == 1 {
			return col[m/2]
		}
		return midpoint(col[m/2-1], col[m/2])
	}
	return medianCleanSelect(clean)
}

// TrimmedMeanKernel drops the arg smallest and arg largest values (NaN
// ordered first, as sort.Float64s does) and averages the rest in ascending
// order: the TrimmedMean GAR.
func TrimmedMeanKernel(ctx *ColumnKernelCtx, _ int, b int) float64 {
	col := ctx.Col
	n := len(col)
	nn := moveNaNsFront(col)
	if nn > b {
		// NaNs rank first, so they spill past the low trim into the
		// kept window: the sort-based reference sums them, yielding NaN.
		return math.NaN()
	}
	if nn == 0 && ctx.Net != nil {
		ApplySortNet(col, ctx.Net)
		var s float64
		for _, x := range col[b : n-b] {
			s += x
		}
		return s / float64(n-2*b)
	}
	// The kept window is ranks [b, n−b) of the NaN-first sorted column;
	// with nn NaNs swapped out that is ranks [b−nn, n−b−nn) of the clean
	// values. Select the window, then sort only it and sum ascending.
	clean := col[nn:]
	lo, hi := b-nn, n-b-nn
	partialSelectNoNaN(clean, hi)
	partialSelectNoNaN(clean[:hi], lo)
	kept := clean[lo:hi]
	insertionSortNoNaN(kept)
	var s float64
	for _, x := range kept {
		s += x
	}
	return s / float64(len(kept))
}

// NaNMeanKernel averages the non-NaN values of the column (0 when every
// value is NaN): the §3.3 selective-averaging GAR.
func NaNMeanKernel(ctx *ColumnKernelCtx, _ int, _ int) float64 {
	var s float64
	var n int
	for _, x := range ctx.Col {
		if !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// MeanAroundMedianKernel averages the arg values closest to the column
// median, skipping non-finite values (median fallback when none are finite,
// 0 when the median itself is NaN): the MeanAroundMedian GAR and Bulyan's
// second phase. On the NaN-free sort-network path the closest values are
// read off the sorted column by sortedWindowSum; columns it cannot sum
// exactly like the index selection (and NaN-laced ones) run
// ClosestToPivotInto on the unsorted column.
func MeanAroundMedianKernel(ctx *ColumnKernelCtx, _ int, keep int) float64 {
	col := ctx.Col
	tmp := ctx.Tmp[:len(col)]
	copy(tmp, col)
	nn := moveNaNsFront(tmp)
	clean := tmp[nn:]
	m := len(clean)
	if m == 0 {
		return 0 // every value NaN: the median is NaN, a null update
	}
	sorted := nn == 0 && ctx.Net != nil
	var med float64
	if sorted {
		ApplySortNet(tmp, ctx.Net)
		if m%2 == 1 {
			med = tmp[m/2]
		} else {
			med = midpoint(tmp[m/2-1], tmp[m/2])
		}
	} else {
		med = medianCleanSelect(clean)
	}
	if math.IsNaN(med) {
		// The median itself can compute to NaN without any NaN input:
		// midpoint(-Inf, +Inf). No usable pivot exists, so emit the
		// null update rather than let NaN reach the parameters.
		return 0
	}
	var s float64
	var cnt int
	ok := false
	if sorted {
		s, cnt, ok = sortedWindowSum(tmp, med, keep)
	}
	if !ok {
		for _, idx := range ClosestToPivotInto(ctx.Idx, ctx.Dist, col, med, keep) {
			if x := col[idx]; !math.IsNaN(x) && !math.IsInf(x, 0) {
				s += x
				cnt++
			}
		}
	}
	if cnt == 0 {
		return med
	}
	return s / float64(cnt)
}

// pivotDist is the distance the closest-to-pivot selections rank by:
// |x−pivot|, NaN saturated to +Inf.
func pivotDist(x, pivot float64) float64 {
	d := math.Abs(x - pivot)
	if d != d {
		return math.Inf(1)
	}
	return d
}

// sortedWindowSum sums the finite values among the keep values of the
// ascending, NaN-free column sorted that lie closest to pivot, in the
// order ClosestToPivotInto would list them (ascending distance), and
// counts them. Rounding is monotone, so distances shrink towards the pivot
// from the left and grow away from it on the right: the keep closest form
// a contiguous window, found by a two-pointer merge outward from the pivot.
//
// ClosestToPivotInto breaks distance ties by column index, which the
// sorted copy has lost. Ties between equal values are harmless (the same
// addend in either order; -0 and +0 add identically to a sum that starts
// at +0). ok is false — and the caller runs the index selection — when
// one distance is shared by distinct values among the picks, or in the
// tie class at the window's edge.
func sortedWindowSum(sorted []float64, pivot float64, keep int) (s float64, cnt int, ok bool) {
	m := len(sorted)
	if keep == 0 {
		return 0, 0, true
	}
	// Split so sorted[:r] ≤ pivot ≤ sorted[r:]; the even-length midpoint
	// can round outside its two middles (subnormal halves), hence the walk.
	r := m / 2
	for r > 0 && sorted[r-1] > pivot {
		r--
	}
	for r < m && sorted[r] < pivot {
		r++
	}
	l := r - 1
	var dl, dr float64 // distances of sorted[l] and sorted[r]
	if l >= 0 {
		dl = pivotDist(sorted[l], pivot)
	}
	if r < m {
		dr = pivotDist(sorted[r], pivot)
	}
	var lastD, lastX float64
	for picked := 0; l >= 0 || r < m; picked++ {
		var x, d float64
		if r == m || (l >= 0 && dl <= dr) {
			x, d = sorted[l], dl
			if l--; l >= 0 {
				dl = pivotDist(sorted[l], pivot)
			}
		} else {
			x, d = sorted[r], dr
			if r++; r < m {
				dr = pivotDist(sorted[r], pivot)
			}
		}
		if picked > 0 && d == lastD && x != lastX {
			return 0, 0, false
		}
		if picked >= keep {
			// Past the window: scan the rest of the edge tie class.
			if d != lastD {
				break
			}
			continue
		}
		lastD, lastX = d, x
		if !math.IsInf(x, 0) {
			s += x
			cnt++
		}
	}
	return s, cnt, true
}
