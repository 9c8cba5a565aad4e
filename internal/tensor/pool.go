package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind every parallel
// sweep of the aggregation engine (the blocked distance sweep, the
// row-streaming distance reference, the blocked column pass). The previous
// scheme spawned fresh goroutines on every call — at campaign scale that is
// hundreds of thousands of spawns, each paying stack allocation and
// scheduler handoff on the hot aggregation path. The pool starts
// GOMAXPROCS−1 long-lived workers on first use; a ParallelFor hands them an
// index range through an unbuffered channel and joins the sweep itself, so
// a busy pool degrades to the caller doing more of the work rather than
// blocking, and an idle machine parks the workers on a channel receive.
//
// A call performs no heap allocation of its own: task records are recycled
// through a free list, and the hot sweeps pass a pointer to a body struct
// they already own (converting a pointer to the Loop interface does not
// allocate) instead of a capturing closure, which would escape to the heap.

// Loop is the body of a ParallelFor: Do(worker, index) runs one index.
type Loop interface {
	Do(worker, index int)
}

// LoopFunc adapts a plain function to Loop. Converting a func value does
// not allocate, but a capturing closure escapes once handed to the pool;
// allocation-free callers implement Loop on a struct they already own.
type LoopFunc func(worker, index int)

// Do implements Loop.
func (f LoopFunc) Do(worker, index int) { f(worker, index) }

// poolTask is one ParallelFor invocation: a shared atomic index counter
// drained by the caller and every helper that picked the task up.
type poolTask struct {
	body Loop
	ids  atomic.Int64 // next helper worker id (caller is 0)
	next atomic.Int64 // next index to claim
	n    int
	wg   sync.WaitGroup
}

// drain claims indexes until the range is exhausted.
func (t *poolTask) drain(worker int) {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= t.n {
			return
		}
		t.body.Do(worker, i)
	}
}

var (
	poolOnce  sync.Once
	poolTasks chan *poolTask
	// freeTasks recycles task records between calls. It is sized for
	// more concurrent ParallelFor calls than a process runs in practice;
	// an overflowing record is simply left to the garbage collector.
	freeTasks = make(chan *poolTask, 64)
)

// startPool launches the long-lived helpers. GOMAXPROCS−1 of them: the
// caller of every ParallelFor is the remaining worker.
func startPool() {
	poolTasks = make(chan *poolTask)
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for t := range poolTasks {
				t.drain(int(t.ids.Add(1)))
				t.wg.Done()
			}
		}()
	}
}

// ParallelFor runs body.Do(worker, index) for every index in [0, n),
// spread over at most workers concurrent goroutines from the persistent
// pool (the caller counts as one and always participates). Worker ids are
// dense in [0, workers) and each id is held by exactly one goroutine for
// the call's duration, so the body may index per-worker scratch by worker.
// Helpers are recruited without blocking: when the pool is busy the caller
// simply drains more of the range itself. The index→worker assignment is
// scheduling-dependent; callers must make Do(·, i) independent of which
// worker runs it (every engine sweep writes disjoint outputs per index).
func ParallelFor(n, workers int, body Loop) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body.Do(0, i)
		}
		return
	}
	poolOnce.Do(startPool)
	var t *poolTask
	select {
	case t = <-freeTasks:
	default:
		t = new(poolTask)
	}
	t.body, t.n = body, n
	t.ids.Store(0)
	t.next.Store(0)
	for h := 1; h < workers; h++ {
		t.wg.Add(1)
		select {
		case poolTasks <- t:
			continue
		default:
		}
		// No helper free right now: stop recruiting and get to work.
		t.wg.Done()
		break
	}
	t.drain(0)
	t.wg.Wait()
	// Every recruited helper has called Done, its last touch of t, so the
	// record can be reused; drop the body so it retains nothing.
	t.body = nil
	select {
	case freeTasks <- t:
	default:
	}
}
