package tensor

import "math"

// This file implements the deterministic selection kernels that replace the
// full sorts in the aggregation hot path. The GAR column kernels (median,
// trimmed mean, mean-around-median) and the Krum/Bulyan scoring loops only
// ever need a handful of order statistics out of each n-value column or
// score row, so an O(n) selection beats the previous O(n log n)
// interface-dispatched sort.Float64s by a wide margin — and, unlike
// sort.SliceStable, needs no per-call closure or index allocations.
//
// Determinism: pivots are the median of three fixed positions, so the
// partition sequence — and therefore the exact output permutation — is a
// pure function of the input. No randomness, no scheduler dependence.
//
// Value ordering matches sort.Float64s: NaN compares before every other
// value. Index-based selections (SmallestKInto) instead use the
// ArgsortAscending order: NaN last, ties broken by ascending index, which is
// exactly what the previous sort.SliceStable-based implementation produced.

// smallSelect is the sub-range size below which selection falls back to a
// direct insertion sort: partitioning below this size costs more than the
// insertion pass it saves. Columns at the paper's n≈19 scale are instead
// handled branchlessly by the sorting network (sortnet.go) — data-dependent
// branches on random data mispredict once per element, which is what makes
// comparison sorts slow at tiny n, not the op count.
const smallSelect = 24

// lessFloat is the sort.Float64s ordering: NaN sorts before everything.
func lessFloat(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// insertionSortFloat sorts xs ascending in the lessFloat order.
func insertionSortFloat(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && lessFloat(x, xs[j]) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// insertionSortNoNaN is insertionSortFloat for NaN-free input: the plain <
// compare is one branch instead of three, which halves the cost of the
// n≈19 column sorts that dominate the coordinate-wise rules. For NaN-free
// data lessFloat and < agree, so the output permutation is identical.
func insertionSortNoNaN(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && x < xs[j] {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// moveNaNsFront swap-partitions the NaN entries of xs to the front and
// returns their count. Every kernel that needs sort.Float64s's NaN-first
// rank arithmetic calls this once and then runs the NaN-free selection on
// the clean suffix; the multiset of clean values (hence every selected
// order statistic) is unchanged.
func moveNaNsFront(xs []float64) int {
	nn := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nn] = xs[nn], xs[i]
			nn++
		}
	}
	return nn
}

// partialSelectNoNaN is PartialSelectFloat for NaN-free input.
func partialSelectNoNaN(xs []float64, k int) {
	if k <= 0 || k >= len(xs) {
		return
	}
	lo, hi := 0, len(xs)
	for {
		if hi-lo <= smallSelect {
			insertionSortNoNaN(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[(lo+hi)/2], xs[hi-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = c
			if b < a {
				b = a
			}
		}
		p := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := xs[i]
			switch {
			case x < p:
				xs[i], xs[lt] = xs[lt], xs[i]
				lt++
				i++
			case p < x:
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// selectSmallestNoNaN rearranges NaN-free xs so that xs[:k] holds the k
// smallest values sorted ascending.
func selectSmallestNoNaN(xs []float64, k int) {
	if k < 0 {
		k = 0
	}
	if k > len(xs) {
		k = len(xs)
	}
	partialSelectNoNaN(xs, k)
	insertionSortNoNaN(xs[:k])
}

// medianOf3Float returns the middle of a, b, c in the lessFloat order.
func medianOf3Float(a, b, c float64) float64 {
	if lessFloat(b, a) {
		a, b = b, a
	}
	if lessFloat(c, b) {
		b = c
		if lessFloat(b, a) {
			b = a
		}
	}
	return b
}

// PartialSelectFloat rearranges xs so that xs[:k] holds the k smallest
// values (lessFloat order, unordered within the prefix) and xs[k:] the rest.
// It is an in-place deterministic quickselect with a three-way partition, so
// duplicate-heavy and ±Inf-saturated inputs (Byzantine distance rows) keep
// linear behaviour. k out of [0, len(xs)] is clipped.
func PartialSelectFloat(xs []float64, k int) {
	if k <= 0 || k >= len(xs) {
		return
	}
	lo, hi := 0, len(xs)
	for {
		if hi-lo <= smallSelect {
			insertionSortFloat(xs[lo:hi])
			return
		}
		p := medianOf3Float(xs[lo], xs[(lo+hi)/2], xs[hi-1])
		// Three-way partition of xs[lo:hi] around the pivot value p:
		// [lo,lt) < p, [lt,gt) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := xs[i]
			switch {
			case lessFloat(x, p):
				xs[i], xs[lt] = xs[lt], xs[i]
				lt++
				i++
			case lessFloat(p, x):
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // the boundary falls inside the equal-to-pivot run
		}
	}
}

// SelectSmallestFloat rearranges xs so that xs[:k] holds the k smallest
// values sorted ascending (lessFloat order). The suffix order is unspecified.
// NaN-free inputs (one O(n) scan detects them) take a fast path with plain
// < compares.
func SelectSmallestFloat(xs []float64, k int) {
	if k < 0 {
		k = 0
	}
	if k > len(xs) {
		k = len(xs)
	}
	hasNaN := false
	for _, x := range xs {
		if x != x {
			hasNaN = true
			break
		}
	}
	if !hasNaN {
		partialSelectNoNaN(xs, k)
		insertionSortNoNaN(xs[:k])
		return
	}
	PartialSelectFloat(xs, k)
	insertionSortFloat(xs[:k])
}

// SortFloats sorts xs ascending in the sort.Float64s order (NaN before every
// other value) without allocating: a deterministic median-of-3 quicksort
// with three-way partitioning, recursing into the smaller side.
func SortFloats(xs []float64) {
	for len(xs) > smallSelect {
		p := medianOf3Float(xs[0], xs[len(xs)/2], xs[len(xs)-1])
		lt, i, gt := 0, 0, len(xs)
		for i < gt {
			x := xs[i]
			switch {
			case lessFloat(x, p):
				xs[i], xs[lt] = xs[lt], xs[i]
				lt++
				i++
			case lessFloat(p, x):
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		if lt < len(xs)-gt {
			SortFloats(xs[:lt])
			xs = xs[gt:]
		} else {
			SortFloats(xs[gt:])
			xs = xs[:lt]
		}
	}
	insertionSortFloat(xs)
}

// idxLess is the ArgsortAscending order over indexes into xs: ascending
// value with NaN last, ties broken by ascending index (the stability rule of
// the previous sort.SliceStable implementation).
func idxLess(xs []float64, a, b int) bool {
	va, vb := xs[a], xs[b]
	if math.IsNaN(va) {
		if math.IsNaN(vb) {
			return a < b
		}
		return false
	}
	if math.IsNaN(vb) {
		return true
	}
	if va != vb {
		return va < vb
	}
	return a < b
}

// insertionSortIdx sorts idx by idxLess.
func insertionSortIdx(idx []int, xs []float64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && idxLess(xs, x, idx[j]) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// partialSelectIdx rearranges idx so that idx[:k] holds the k smallest
// indexes in the idxLess order. Because idxLess is a strict total order
// (index tie-break), a plain two-way partition terminates without an
// equal-run bucket.
func partialSelectIdx(idx []int, xs []float64, k int) {
	if k <= 0 || k >= len(idx) {
		return
	}
	lo, hi := 0, len(idx)
	for {
		if hi-lo <= smallSelect {
			insertionSortIdx(idx[lo:hi], xs)
			return
		}
		// Median-of-3 pivot index in idxLess order.
		a, b, c := idx[lo], idx[(lo+hi)/2], idx[hi-1]
		if idxLess(xs, b, a) {
			a, b = b, a
		}
		if idxLess(xs, c, b) {
			b = c
			if idxLess(xs, b, a) {
				b = a
			}
		}
		p := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := idx[i]
			switch {
			case idxLess(xs, x, p):
				idx[i], idx[lt] = idx[lt], idx[i]
				lt++
				i++
			case idxLess(xs, p, x):
				gt--
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++ // only the pivot index itself compares equal
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// idxLessNoNaN is idxLess for NaN-free value slices: ascending value, ties
// by ascending index.
func idxLessNoNaN(xs []float64, a, b int) bool {
	va, vb := xs[a], xs[b]
	if va != vb {
		return va < vb
	}
	return a < b
}

// insertionSortIdxNoNaN sorts idx by idxLessNoNaN.
func insertionSortIdxNoNaN(idx []int, xs []float64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && idxLessNoNaN(xs, x, idx[j]) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// partialSelectIdxNoNaN is partialSelectIdx for NaN-free value slices.
func partialSelectIdxNoNaN(idx []int, xs []float64, k int) {
	if k <= 0 || k >= len(idx) {
		return
	}
	lo, hi := 0, len(idx)
	for {
		if hi-lo <= smallSelect {
			insertionSortIdxNoNaN(idx[lo:hi], xs)
			return
		}
		a, b, c := idx[lo], idx[(lo+hi)/2], idx[hi-1]
		if idxLessNoNaN(xs, b, a) {
			a, b = b, a
		}
		if idxLessNoNaN(xs, c, b) {
			b = c
			if idxLessNoNaN(xs, b, a) {
				b = a
			}
		}
		p := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			x := idx[i]
			switch {
			case idxLessNoNaN(xs, x, p):
				idx[i], idx[lt] = idx[lt], idx[i]
				lt++
				i++
			case idxLessNoNaN(xs, p, x):
				gt--
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// smallestKIntoNoNaN is SmallestKInto for value slices known to be NaN-free
// (score rows, |x−pivot| distance scratch): the two-branch comparator makes
// the index selection roughly twice as cheap.
func smallestKIntoNoNaN(dst []int, xs []float64, k int) []int {
	dst = dst[:len(xs)]
	for i := range dst {
		dst[i] = i
	}
	partialSelectIdxNoNaN(dst, xs, k)
	insertionSortIdxNoNaN(dst[:k], xs)
	return dst[:k]
}

// SmallestKInto writes the indexes of the k smallest values of xs into dst
// and returns dst[:k], ordered exactly like SmallestK: ascending value, NaN
// last, ties by ascending index. dst must have capacity for len(xs) entries;
// no allocation is performed.
func SmallestKInto(dst []int, xs []float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: SmallestKInto k out of range")
	}
	hasNaN := false
	for _, x := range xs {
		if x != x {
			hasNaN = true
			break
		}
	}
	if !hasNaN {
		return smallestKIntoNoNaN(dst, xs, k)
	}
	dst = dst[:len(xs)]
	for i := range dst {
		dst[i] = i
	}
	partialSelectIdx(dst, xs, k)
	insertionSortIdx(dst[:k], xs)
	return dst[:k]
}

// ClosestToPivotInto is the allocation-free ClosestToPivot: it writes the
// |x−pivot| distances into dscratch (capacity ≥ len(xs)) and the selected
// indexes into dst, returning dst[:k] in the same order ClosestToPivot
// produces.
func ClosestToPivotInto(dst []int, dscratch []float64, xs []float64, pivot float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic("tensor: ClosestToPivotInto k out of range")
	}
	dscratch = dscratch[:len(xs)]
	for i, x := range xs {
		dscratch[i] = pivotDist(x, pivot)
	}
	// dscratch is NaN-free by construction (NaN distances saturate to
	// +Inf above), so the fast index selection applies unconditionally.
	return smallestKIntoNoNaN(dst, dscratch, k)
}
