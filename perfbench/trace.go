package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/tensor"
)

// span is one timed call at a layer boundary. Trace is the round index (or
// the campaign cell index); Parent is the index of the enclosing round span,
// -1 for a root span. Times are nanoseconds since the recorder's origin.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once the run ends so
// that no file I/O lands inside a measured interval.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// round is the index of the open round span, the parent of every span
	// the boundary wrappers record. Rounds are driven by one goroutine and
	// the wrapped GAR and optimizer run on it, so only campaign cells,
	// recorded from the pool, need the mutex.
	round, roundTrace int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), round: -1, roundTrace: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// beginRound opens the round span every boundary span is parented to.
func (r *recorder) beginRound(trace int) {
	r.round = r.add(span{Name: "round", Trace: trace, Parent: -1, Start: r.now()})
	r.roundTrace = trace
}

func (r *recorder) endRound() {
	r.mu.Lock()
	r.spans[r.round].End = r.now()
	r.mu.Unlock()
	r.round, r.roundTrace = -1, -1
}

// child records a finished boundary span under the open round.
func (r *recorder) child(name string, start int64, allocs uint64, bytes int64) {
	r.add(span{Name: name, Trace: r.roundTrace, Parent: r.round, Start: start, End: r.now(), Allocs: allocs, Bytes: bytes})
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats summarises the spans of one traced phase: per-call and
// per-round self times of each boundary.
type layerStats struct {
	rounds      []float64 // round span durations, ms
	self        []float64 // round self time (round − children), ms
	perRound    map[string][]float64
	calls       map[string][]float64 // per-call durations, ms
	allocs      map[string]uint64
	throughputs map[string][]float64 // per-call MB/s
}

func summarise(spans []span) layerStats {
	st := layerStats{
		perRound:    map[string][]float64{},
		calls:       map[string][]float64{},
		allocs:      map[string]uint64{},
		throughputs: map[string][]float64{},
	}
	children := map[int]map[string]float64{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		d := ms(s.dur())
		if children[s.Parent] == nil {
			children[s.Parent] = map[string]float64{}
		}
		children[s.Parent][s.Name] += d
		st.calls[s.Name] = append(st.calls[s.Name], d)
		st.allocs[s.Name] += s.Allocs
		if s.Bytes > 0 && d > 0 {
			st.throughputs[s.Name] = append(st.throughputs[s.Name], float64(s.Bytes)/1e6/(d/1e3))
		}
	}
	for i, s := range spans {
		if s.Name != "round" {
			continue
		}
		d := ms(s.dur())
		st.rounds = append(st.rounds, d)
		self := d
		for _, name := range boundaryNames {
			c := children[i][name]
			st.perRound[name] = append(st.perRound[name], c)
			self -= c
		}
		st.self = append(st.self, self)
	}
	return st
}

// boundaryNames are the child spans a round can hold.
var boundaryNames = []string{"gar", "opt"}

// tracedGAR times every aggregation. It reaches the wrapped rule's workspace
// kernels through gar.AggregateInto, so the cluster's steady-state path (and
// its allocation count) is exactly what runs untraced.
type tracedGAR struct {
	inner gar.GAR
	rec   *recorder
}

// tracedByzGAR additionally forwards gar.ByzantineInfo. It is only used for
// rules that implement it: exposing the interface for a rule that does not
// would change ps.New's worker check and the churn below-bound gate.
type tracedByzGAR struct {
	*tracedGAR
	info gar.ByzantineInfo
}

func (t tracedByzGAR) F() int          { return t.info.F() }
func (t tracedByzGAR) MinWorkers() int { return t.info.MinWorkers() }

// traceGAR wraps rule so that every call records a "gar" span.
func traceGAR(rule gar.GAR, rec *recorder) gar.GAR {
	t := &tracedGAR{inner: rule, rec: rec}
	if info, ok := rule.(gar.ByzantineInfo); ok {
		return tracedByzGAR{tracedGAR: t, info: info}
	}
	return t
}

func (t *tracedGAR) Name() string { return t.inner.Name() }

func (t *tracedGAR) Aggregate(grads []tensor.Vector) (tensor.Vector, error) {
	return t.AggregateInto(nil, grads)
}

// AggregateInto implements gar.WorkspaceGAR for every wrapped rule;
// gar.AggregateInto falls back to the rule's own Aggregate when it has no
// workspace kernel (or ws is nil), as it would untraced.
func (t *tracedGAR) AggregateInto(ws *gar.Workspace, grads []tensor.Vector) (tensor.Vector, error) {
	a0, start := heapAllocs(), t.rec.now()
	out, err := gar.AggregateInto(ws, t.inner, grads)
	var bytes int64
	if len(grads) > 0 {
		bytes = int64(len(grads)) * int64(grads[0].Dim()) * 8
	}
	t.rec.child("gar", start, heapAllocs()-a0, bytes)
	return out, err
}

// tracedOpt times every descent step.
type tracedOpt struct {
	inner opt.Optimizer
	rec   *recorder
}

func (t *tracedOpt) Name() string { return t.inner.Name() }
func (t *tracedOpt) Reset()       { t.inner.Reset() }

func (t *tracedOpt) Step(step int, params, grad tensor.Vector) {
	a0, start := heapAllocs(), t.rec.now()
	t.inner.Step(step, params, grad)
	t.rec.child("opt", start, heapAllocs()-a0, 0)
}

// boundaries decides what the benchmark hands a cluster as its GAR and
// optimizer: the rules themselves untraced, span-recording wrappers traced.
type boundaries struct{ rec *recorder }

func (b boundaries) gar(rule gar.GAR) gar.GAR {
	if b.rec == nil {
		return rule
	}
	return traceGAR(rule, b.rec)
}

func (b boundaries) opt(o opt.Optimizer) opt.Optimizer {
	if b.rec == nil {
		return o
	}
	return &tracedOpt{inner: o, rec: b.rec}
}
