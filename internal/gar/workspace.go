package gar

import (
	"aggregathor/internal/tensor"
)

// Workspace is the reusable scratch arena of the aggregation hot path. The
// paper's Figure 4 shows aggregation eating 27–52% of each round at the
// Table-1 scale, and a large share of the Go kernels' cost was allocator
// traffic: a fresh n×n distance matrix, per-coordinate column buffers and
// index slices, and a fresh output vector on every Aggregate call.
//
// A Workspace owns all of those buffers: the pairwise distance matrix and
// its blocked partial accumulators, score and selection scratch, the
// column-pass tile engine, Bulyan's sorted score rows, and the output
// vector. Rules that implement WorkspaceGAR aggregate through it with zero
// steady-state heap allocations. The zero value is ready to use; buffers
// grow on demand and are retained.
//
// A Workspace is not safe for concurrent use; give each trainer (parameter
// server loop, socket cluster, benchmark goroutine) its own. The vector
// returned by AggregateInto aliases the workspace and is only valid until
// the next call — callers that retain it across rounds must Clone it.
type Workspace struct {
	distBacking []float64
	dist        [][]float64
	partials    []float64
	sweep       distPass

	scores []float64
	row    []float64
	selIdx []int
	picked []tensor.Vector
	out    tensor.Vector

	cols tensor.ColumnEngine

	// Bulyan's incremental rescoring state: per-gradient sorted distance
	// rows plus the active/selected index lists.
	rowsBacking []float64
	rows        [][]float64
	active      []int
	selected    []int

	// Weiszfeld state for the geometric median: the finite-gradient filter
	// list and the two alternating iterate buffers.
	finite []tensor.Vector
	iterA  tensor.Vector
	iterB  tensor.Vector

	// Generic BULYAN's shrinking candidate list. Its inner rule aggregates
	// through a dedicated nested workspace (lazily allocated, then retained)
	// so the outer loop's state can never be clobbered by whichever rule
	// sits underneath — including another workspace-backed composite.
	remaining []tensor.Vector
	inner     *Workspace
}

// NewWorkspace returns an empty workspace. Equivalent to &Workspace{}; the
// constructor exists for call-site readability.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensureDist returns the n×n distance matrix, reusing the backing array.
func (ws *Workspace) ensureDist(n int) [][]float64 {
	if cap(ws.distBacking) < n*n {
		ws.distBacking = make([]float64, n*n)
	}
	if len(ws.dist) != n {
		ws.dist = make([][]float64, n)
		for i := range ws.dist {
			ws.dist[i] = ws.distBacking[i*n : (i+1)*n]
		}
	}
	return ws.dist
}

// ensurePartials returns a float scratch of the given length.
func (ws *Workspace) ensurePartials(n int) []float64 {
	if cap(ws.partials) < n {
		ws.partials = make([]float64, n)
	}
	return ws.partials[:n]
}

// ensureScores returns score scratch of length n plus a row buffer.
func (ws *Workspace) ensureScores(n int) (scores, row []float64) {
	if cap(ws.scores) < n {
		ws.scores = make([]float64, n)
		ws.row = make([]float64, n)
	}
	return ws.scores[:n], ws.row[:n]
}

// ensureSelIdx returns index scratch with capacity n.
func (ws *Workspace) ensureSelIdx(n int) []int {
	if cap(ws.selIdx) < n {
		ws.selIdx = make([]int, n)
	}
	return ws.selIdx[:n]
}

// ensurePicked returns an empty vector list with capacity n.
func (ws *Workspace) ensurePicked(n int) []tensor.Vector {
	if cap(ws.picked) < n {
		ws.picked = make([]tensor.Vector, 0, n)
	}
	return ws.picked[:0]
}

// ensureOut returns the d-dimensional output vector (contents undefined).
func (ws *Workspace) ensureOut(d int) tensor.Vector {
	if cap(ws.out) < d {
		ws.out = tensor.NewVector(d)
	}
	return ws.out[:d]
}

// ensureFinite returns an empty vector list with capacity n for the
// finite-gradient filter.
func (ws *Workspace) ensureFinite(n int) []tensor.Vector {
	if cap(ws.finite) < n {
		ws.finite = make([]tensor.Vector, 0, n)
	}
	return ws.finite[:0]
}

// ensureIter returns the two d-dimensional Weiszfeld iterate buffers
// (contents undefined).
func (ws *Workspace) ensureIter(d int) (a, b tensor.Vector) {
	if cap(ws.iterA) < d {
		ws.iterA = tensor.NewVector(d)
		ws.iterB = tensor.NewVector(d)
	}
	return ws.iterA[:d], ws.iterB[:d]
}

// ensureRemaining returns an empty vector list with capacity n for generic
// BULYAN's shrinking candidate set.
func (ws *Workspace) ensureRemaining(n int) []tensor.Vector {
	if cap(ws.remaining) < n {
		ws.remaining = make([]tensor.Vector, 0, n)
	}
	return ws.remaining[:0]
}

// ensureInner returns the nested workspace used for a composite rule's inner
// aggregation, allocating it on first use.
func (ws *Workspace) ensureInner() *Workspace {
	if ws.inner == nil {
		ws.inner = NewWorkspace()
	}
	return ws.inner
}

// ensureBulyan returns the sorted-row state for n gradients: n empty rows
// of capacity n, the active index list (length n, uninitialised) and the
// empty selected list.
func (ws *Workspace) ensureBulyan(n int) (rows [][]float64, active, selected []int) {
	if cap(ws.rowsBacking) < n*n {
		ws.rowsBacking = make([]float64, n*n)
	}
	if len(ws.rows) != n {
		ws.rows = make([][]float64, n)
	}
	for i := range ws.rows {
		ws.rows[i] = ws.rowsBacking[i*n : i*n : (i+1)*n]
	}
	if cap(ws.active) < n {
		ws.active = make([]int, n)
		ws.selected = make([]int, n)
	}
	return ws.rows, ws.active[:n], ws.selected[:0]
}

// WorkspaceGAR is implemented by rules whose kernels run through a
// Workspace. AggregateInto must behave exactly like Aggregate — same
// validation, bit-identical output — except that the returned vector aliases
// the workspace instead of being freshly allocated.
type WorkspaceGAR interface {
	GAR
	AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error)
}

// AggregateInto aggregates through the rule's workspace kernels when the
// rule implements WorkspaceGAR, falling back to the plain allocating
// Aggregate otherwise (or when ws is nil). The returned vector may alias ws.
func AggregateInto(ws *Workspace, rule GAR, grads []tensor.Vector) (tensor.Vector, error) {
	if ws != nil {
		if wg, ok := rule.(WorkspaceGAR); ok {
			return wg.AggregateInto(ws, grads)
		}
	}
	return rule.Aggregate(grads)
}

// aggregateFresh runs rule's workspace kernel on a transient workspace and
// returns the (freshly allocated, caller-owned) result: the implementation
// behind the plain Aggregate methods of the workspace-backed rules.
func aggregateFresh(rule WorkspaceGAR, grads []tensor.Vector) (tensor.Vector, error) {
	var ws Workspace
	return rule.AggregateInto(&ws, grads)
}
