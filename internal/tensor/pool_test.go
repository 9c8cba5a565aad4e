package tensor

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversEveryIndexOnce pins the pool's scheduling contract:
// every index in [0, n) runs exactly once, for ranges smaller and larger
// than the worker count, repeatedly on the same (persistent) pool.
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 64} {
			for rep := 0; rep < 3; rep++ {
				counts := make([]atomic.Int32, n)
				ParallelFor(n, workers, LoopFunc(func(_, i int) {
					counts[i].Add(1)
				}))
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("n=%d workers=%d rep=%d: index %d ran %d times", n, workers, rep, i, got)
					}
				}
			}
		}
	}
}

// TestParallelForWorkerIDsAreExclusive pins the per-worker-scratch
// contract: worker ids stay in [0, workers) and no two goroutines hold the
// same id concurrently (each id's invocations are serial), so callers may
// index mutable scratch by worker id.
func TestParallelForWorkerIDsAreExclusive(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	const n = 512
	busy := make([]atomic.Int32, workers)
	ParallelFor(n, workers, LoopFunc(func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d outside [0, %d)", w, workers)
			return
		}
		if busy[w].Add(1) != 1 {
			t.Errorf("worker id %d held by two goroutines at once", w)
		}
		for k := 0; k < 100; k++ { // widen the overlap window
			_ = k
		}
		busy[w].Add(-1)
	}))
}

// TestParallelForPropagatesToOutput is the end-to-end shape: a parallel
// square over a shared output slice with disjoint per-index writes.
func TestParallelForPropagatesToOutput(t *testing.T) {
	const n = 4096
	out := make([]int, n)
	ParallelFor(n, runtime.GOMAXPROCS(0), LoopFunc(func(_, i int) { out[i] = i * i }))
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestColumnEngineZeroAllocsParallel pins the pool's share of the
// zero-allocation contract where the pool actually runs: GOMAXPROCS=2, a
// dimension above colParallelMin. testing.AllocsPerRun would pin
// GOMAXPROCS=1, so mallocs are counted process-wide with ReadMemStats,
// taking the minimum over a few windows (the runtime refills its per-P
// wait-queue caches with an occasional allocation while pool goroutines
// park and wake; a per-call allocation shows in every window).
func TestColumnEngineZeroAllocsParallel(t *testing.T) {
	const n, d, calls, windows = 19, 2*colParallelMin + 7, 8, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = NewVector(d)
		for j := range vs[i] {
			vs[i][j] = float64((i*7919 + j*104729) % 1013)
		}
	}
	out := NewVector(d)
	e := new(ColumnEngine)
	for _, k := range []struct {
		name   string
		kernel ColumnKernel
		arg    int
	}{
		{"median", MedianKernel, 0},
		{"mean-around-median", MeanAroundMedianKernel, 15},
	} {
		e.Run(out, vs, k.arg, k.kernel, true) // warm the engine and the pool
		best := uint64(math.MaxUint64)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				e.Run(out, vs, k.arg, k.kernel, true)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if best != 0 {
			t.Errorf("%s: %.2f allocs per warm parallel column pass at GOMAXPROCS=2, want 0",
				k.name, float64(best)/calls)
		}
	}
}
