package gar

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"aggregathor/internal/tensor"
)

// MultiKrum implements the MULTI-KRUM rule from the paper (§2.3 and the
// appendix): each gradient is scored by the sum of squared distances to its
// n−f−2 closest neighbours, and the rule returns the average of the m
// smallest-scoring gradients.
//
// Requirements (Theorem 1): n ≥ 2f+3 and 1 ≤ m ≤ n−f−2 for weak Byzantine
// resilience. With m = 1 this is the original Krum rule of Blanchard et al.
//
// The distance computation — the O(n²d) hot path — runs on the cache-
// blocked engine (BlockedPairwiseSquaredDistances): coordinate blocks swept
// once across the whole upper triangle, parallel over block indexes,
// matching the paper's "fast, memory scarce implementation ... fully
// parallelizing each of the computational-heavy steps".
type MultiKrum struct {
	// NumByzantine is f, the number of Byzantine workers tolerated.
	NumByzantine int
	// M is the selection size m. If 0, the maximal safe value n−f−2 is
	// used at aggregation time ("adaptive" Multi-Krum).
	M int
	// Sequential confines the blocked distance sweep to the calling
	// goroutine (the result is bit-identical either way). It exists for
	// the ablation benchmark; production use should leave it false.
	Sequential bool
}

// NewMultiKrum returns a MULTI-KRUM rule tolerating f Byzantine workers with
// the adaptive (maximal) selection size m = n−f−2.
func NewMultiKrum(f int) *MultiKrum { return &MultiKrum{NumByzantine: f} }

// NewKrum returns the original Krum rule (m = 1) tolerating f Byzantine
// workers.
func NewKrum(f int) *MultiKrum { return &MultiKrum{NumByzantine: f, M: 1} }

// Name implements GAR.
func (k *MultiKrum) Name() string {
	if k.M == 1 {
		return "krum"
	}
	return "multi-krum"
}

// F implements ByzantineInfo.
func (k *MultiKrum) F() int { return k.NumByzantine }

// MinWorkers implements ByzantineInfo: MULTI-KRUM requires n ≥ 2f+3.
func (k *MultiKrum) MinWorkers() int { return 2*k.NumByzantine + 3 }

// EffectiveM returns the selection size used for n workers: the configured M,
// or the maximal safe value n−f−2 when M is 0.
func (k *MultiKrum) EffectiveM(n int) int {
	if k.M > 0 {
		return k.M
	}
	return n - k.NumByzantine - 2
}

// Aggregate implements GAR.
func (k *MultiKrum) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return aggregateFresh(k, grads)
}

// AggregateInto implements WorkspaceGAR: blocked distances, selection-based
// scoring and the selected-set mean all run on workspace buffers.
func (k *MultiKrum) AggregateInto(ws *Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	sel, err := k.selectInto(ws, grads)
	if err != nil {
		return nil, err
	}
	picked := ws.ensurePicked(len(sel))
	for _, idx := range sel {
		//aggrevet:alloc appends into ensurePicked capacity; 0 steady-state allocs pinned by TestWorkspaceZeroSteadyStateAllocs
		picked = append(picked, grads[idx])
	}
	out := ws.ensureOut(grads[0].Dim())
	tensor.MeanInto(out, picked)
	return out, nil
}

// Select returns the indexes of the m smallest-scoring gradients, ordered by
// ascending score. It validates the n ≥ 2f+3 and m ≤ n−f−2 requirements.
func (k *MultiKrum) Select(grads []tensor.Vector) ([]int, error) {
	var ws Workspace
	return k.selectInto(&ws, grads)
}

// selectInto is Select on workspace buffers; the returned slice aliases ws.
func (k *MultiKrum) selectInto(ws *Workspace, grads []tensor.Vector) ([]int, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	f := k.NumByzantine
	if n < k.MinWorkers() {
		return nil, fmt.Errorf("%w: multi-krum(f=%d) needs n >= %d, got %d",
			ErrTooFewWorkers, f, k.MinWorkers(), n)
	}
	m := k.EffectiveM(n)
	if m < 1 || m > n-f-2 {
		return nil, fmt.Errorf("gar: multi-krum m=%d out of range [1, %d] for n=%d f=%d",
			m, n-f-2, n, f)
	}
	dist := BlockedPairwiseSquaredDistances(grads, ws, k.Sequential)
	scores := krumScoresInto(ws, dist, n, f)
	return tensor.SmallestKInto(ws.ensureSelIdx(n), scores, m), nil
}

// Scores returns the Krum score of every gradient (sum of squared distances
// to the n−f−2 closest neighbours). Exposed for tests and diagnostics.
func (k *MultiKrum) Scores(grads []tensor.Vector) ([]float64, error) {
	if err := checkUniform(grads); err != nil {
		return nil, err
	}
	n := len(grads)
	if n < k.MinWorkers() {
		return nil, fmt.Errorf("%w: multi-krum(f=%d) needs n >= %d, got %d",
			ErrTooFewWorkers, k.NumByzantine, k.MinWorkers(), n)
	}
	var ws Workspace
	dist := BlockedPairwiseSquaredDistances(grads, &ws, k.Sequential)
	return krumScoresInto(&ws, dist, n, k.NumByzantine), nil
}

// PairwiseSquaredDistances computes the symmetric n×n matrix of squared
// Euclidean distances, with non-finite coordinates saturating to +Inf. When
// sequential is false the upper triangle is partitioned across
// min(GOMAXPROCS, n) goroutines.
//
// This is the row-streaming reference kernel: each gradient is re-read once
// per pair. The hot path uses BlockedPairwiseSquaredDistances, which
// produces the same matrix (within per-pair summation-order ulps, with
// identical non-finite saturation) from cache-blocked sweeps; this form is
// kept as the equivalence-test reference and the ablation baseline.
func PairwiseSquaredDistances(grads []tensor.Vector, sequential bool) [][]float64 {
	n := len(grads)
	dist := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range dist {
		dist[i] = backing[i*n : (i+1)*n]
	}
	fill := func(i int) {
		for j := i + 1; j < n; j++ {
			d := tensor.SquaredDistance(grads[i], grads[j])
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if sequential || workers <= 1 || n < 4 {
		for i := 0; i < n; i++ {
			fill(i)
		}
		return dist
	}
	// Rows have decreasing cost (row i does n-1-i distance computations),
	// so hand out rows via the pool's shared atomic counter rather than
	// fixed block splits — lock-free work stealing keeps every worker busy
	// until the triangle is exhausted without serialising the steal on a
	// mutex.
	tensor.ParallelFor(n, workers, tensor.LoopFunc(func(_, i int) { fill(i) }))
	return dist
}

// KrumScores derives the per-gradient Krum score from a pairwise squared
// distance matrix: the sum of the n−f−2 smallest distances to other
// gradients. Scores that would be NaN are saturated to +Inf.
func KrumScores(dist [][]float64, n, f int) []float64 {
	k := n - f - 2
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, dist[i][j])
			}
		}
		sort.Float64s(row)
		var s float64
		// NaNs sort first in sort.Float64s; skip them (they only arise
		// if a caller hand-built the matrix — SquaredDistance never
		// returns NaN).
		lo := 0
		for lo < len(row) && math.IsNaN(row[lo]) {
			lo++
		}
		hi := lo + k
		if hi > len(row) {
			hi = len(row)
		}
		for _, d := range row[lo:hi] {
			s += d
		}
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scores[i] = s
	}
	return scores
}
