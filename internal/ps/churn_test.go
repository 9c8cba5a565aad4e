package ps

import (
	"testing"
)

func TestChurnConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChurnConfig
		ok   bool
	}{
		{"zero value", ChurnConfig{}, true},
		{"enabled", ChurnConfig{Rate: 0.1, DownSteps: 2, MaxRejoins: 3}, true},
		{"enabled no rejoins", ChurnConfig{Rate: 0.1, DownSteps: 1}, true},
		{"negative rate", ChurnConfig{Rate: -0.1, DownSteps: 1}, false},
		{"rate one", ChurnConfig{Rate: 1, DownSteps: 1}, false},
		{"enabled zero downSteps", ChurnConfig{Rate: 0.1}, false},
		{"negative downSteps", ChurnConfig{Rate: 0.1, DownSteps: -1}, false},
		{"negative maxRejoins", ChurnConfig{Rate: 0.1, DownSteps: 1, MaxRejoins: -1}, false},
		{"knobs without rate", ChurnConfig{DownSteps: 2}, false},
		{"rejoins without rate", ChurnConfig{MaxRejoins: 1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

// TestChurnSchedulePureFunction pins the schedule's structural invariants
// over a long horizon: determinism (a second timeline of the same worker,
// walked to the horizon first and then queried behind, agrees at every
// step), no crashes at step 0, downtime of
// exactly DownSteps rounds, rejoin budgets enforced, and — the dead-fixture
// guard — that the chosen rate actually exercises crashes, rejoins and a
// permanent departure.
func TestChurnSchedulePureFunction(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.15, DownSteps: 3, MaxRejoins: 2}
	const seed, workers, steps = 29, 7, 300

	crashes, rejoins, permanents := 0, 0, 0
	for w := 0; w < workers; w++ {
		tl, twin := cfg.Timeline(seed, w), cfg.Timeline(seed, w)
		twin.Phase(steps)
		if got := tl.Phase(0); got != ChurnLive {
			t.Fatalf("worker %d: phase at step 0 = %v, want live", w, got)
		}
		lastCrash := -1
		rejoinsSeen := 0
		for s := 0; s <= steps; s++ {
			phase := tl.Phase(s)
			if phase != twin.Phase(s) {
				t.Fatalf("worker %d step %d: phase not deterministic", w, s)
			}
			switch phase {
			case ChurnCrash:
				crashes++
				if lastCrash >= 0 && s < lastCrash+cfg.DownSteps {
					t.Fatalf("worker %d: crash at %d inside downtime of crash at %d", w, s, lastCrash)
				}
				lastCrash = s
			case ChurnRejoin:
				rejoins++
				rejoinsSeen++
				if lastCrash < 0 || s != lastCrash+cfg.DownSteps {
					t.Fatalf("worker %d: rejoin at %d, want exactly %d after crash at %d",
						w, s, cfg.DownSteps, lastCrash)
				}
				if rejoinsSeen > cfg.MaxRejoins {
					t.Fatalf("worker %d: %d rejoins exceed budget %d", w, rejoinsSeen, cfg.MaxRejoins)
				}
			case ChurnDown:
				if lastCrash < 0 {
					t.Fatalf("worker %d: down at %d without a crash", w, s)
				}
			}
		}
		if tl.Permanent(steps) {
			permanents++
			if rejoinsSeen != cfg.MaxRejoins {
				t.Fatalf("worker %d: permanent after %d rejoins, want budget %d spent",
					w, rejoinsSeen, cfg.MaxRejoins)
			}
		}
	}
	if crashes == 0 || rejoins == 0 {
		t.Fatalf("dead fixture: crashes=%d rejoins=%d — rate never exercised", crashes, rejoins)
	}
	if permanents == 0 {
		t.Fatalf("dead fixture: no worker exhausted its rejoin budget over %d steps", steps)
	}
	if disabled := (ChurnConfig{}); disabled.Timeline(seed, 0).Phase(5) != ChurnLive {
		t.Fatal("disabled churn must report every worker live")
	}
}

// TestChurnTimelineAdvanceIsConstant pins the timeline's cost model: deep
// into a run, advancing one step costs one crash draw, not a replay of every
// earlier step (a replay from step 0 to step 1000 allocates two objects per
// step walked). A worker loop queries its timeline every round, so an
// O(step) advance would make an episode quadratic in rounds.
func TestChurnTimelineAdvanceIsConstant(t *testing.T) {
	// An unbounded rejoin budget keeps the worker cycling through
	// crash/down/rejoin, so every advance below walks a fresh step.
	cfg := ChurnConfig{Rate: 0.08, DownSteps: 2, MaxRejoins: 1 << 20}
	const seed, worker, depth = 11, 3, 1000
	tl := cfg.Timeline(seed, worker)
	tl.Phase(depth)
	step := depth
	allocs := testing.AllocsPerRun(200, func() {
		step++
		tl.Phase(step)
		tl.Permanent(step)
	})
	if allocs > 3 {
		t.Fatalf("advancing the timeline at step ~%d: %.1f allocs per step, want <= 3", depth, allocs)
	}
	// Queries behind the frontier read the crash memo: no draws, no
	// allocations.
	if behind := testing.AllocsPerRun(200, func() { tl.Phase(depth / 2) }); behind != 0 {
		t.Fatalf("memoised query: %.1f allocs, want 0", behind)
	}
	if crashes := countPhase(tl, depth, step, ChurnCrash); crashes == 0 {
		t.Fatalf("dead fixture: no crash in steps (%d, %d]", depth, step)
	}
}

// TestChurnTimelineMemoIsBounded pins what a far-ahead query leaves behind.
// The UDP worker's model collector asks the timeline about the step of any
// well-formed model datagram before its future-broadcast cap, so one spoofed
// datagram with a huge step walks the timeline that far. The walk must keep
// only crash steps — at most MaxRejoins+1 of them — not one entry per step,
// and the timeline must still answer every earlier step exactly.
func TestChurnTimelineMemoIsBounded(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.002, DownSteps: 2, MaxRejoins: 3}
	const seed, worker, far = 11, 3, 20000
	tl := cfg.Timeline(seed, worker)
	if !tl.Permanent(far) || tl.Phase(far) != ChurnDown {
		t.Fatalf("dead fixture: worker %d still rejoining at step %d", worker, far)
	}
	if n := cap(tl.crashes); n > cfg.MaxRejoins+1 {
		t.Fatalf("timeline keeps %d entries after a query at step %d, want <= MaxRejoins+1 = %d",
			n, far, cfg.MaxRejoins+1)
	}
	last := tl.crashes[len(tl.crashes)-1]
	if last < 10*cfg.MaxRejoins {
		t.Fatalf("dead fixture: final crash at step %d, too early to tell a crash memo from a step memo", last)
	}
	inOrder := cfg.Timeline(seed, worker)
	for s := 0; s <= last+1; s++ {
		if a, b := inOrder.Phase(s), tl.Phase(s); a != b {
			t.Fatalf("step %d: in-order timeline %v, after far query %v", s, a, b)
		}
		if a, b := inOrder.Permanent(s), tl.Permanent(s); a != b {
			t.Fatalf("step %d: in-order permanent %v, after far query %v", s, a, b)
		}
	}
}

// countPhase counts the steps in (from, to] where the timeline reports phase.
func countPhase(tl *ChurnTimeline, from, to int, phase ChurnPhase) int {
	n := 0
	for s := from + 1; s <= to; s++ {
		if tl.Phase(s) == phase {
			n++
		}
	}
	return n
}

// checkTimeline queries the worker's memoised timeline ahead of step s
// first, then at s itself — behind its memo frontier, the order the UDP
// worker's model collector and event loop produce — and requires the phase
// and permanence the tracker holds for the worker at s.
func checkTimeline(t *testing.T, tl *ChurnTimeline, tr *MembershipTracker, s, w, ahead int) {
	t.Helper()
	tl.Phase(s + ahead)
	if got := tl.Phase(s); got != tr.phases[w] {
		t.Fatalf("step %d worker %d: timeline phase %v (queried %d ahead first), tracker %v",
			s, w, got, ahead, tr.phases[w])
	}
	if got := tl.Permanent(s); got != tr.permanent[w] {
		t.Fatalf("step %d worker %d: timeline permanent %v, tracker %v", s, w, got, tr.permanent[w])
	}
}

// TestMembershipTrackerMatchesReplay cross-checks the tracker's incremental
// state machine against the schedule's timeline, queried out of order, at
// every (step, worker).
func TestMembershipTrackerMatchesReplay(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.2, DownSteps: 2, MaxRejoins: 1}
	const seed, workers, steps = 71, 5, 120

	tr := NewMembershipTracker(cfg, seed, workers)
	timelines := make([]*ChurnTimeline, workers)
	for w := range timelines {
		timelines[w] = cfg.Timeline(seed, w)
	}
	for s := 0; s <= steps; s++ {
		phases := tr.BeginRound(s)
		live := 0
		for w := 0; w < workers; w++ {
			checkTimeline(t, timelines[w], tr, s, w, (s*7+w)%13)
			if phases[w] == ChurnLive || phases[w] == ChurnRejoin {
				live++
			}
			if phases[w] == ChurnRejoin {
				if v := tr.Admit(w, s, 1); v != RejoinAdmit {
					t.Fatalf("step %d worker %d: scheduled rejoin verdict %v", s, w, v)
				}
			}
		}
		if tr.Live() != live {
			t.Fatalf("step %d: Live() = %d, want %d", s, tr.Live(), live)
		}
		if tr.PendingRejoins() != 0 {
			t.Fatalf("step %d: %d rejoins still pending after admitting all", s, tr.PendingRejoins())
		}
	}
	if tr.Crashes() == 0 || tr.Rejoins() == 0 {
		t.Fatalf("dead fixture: crashes=%d rejoins=%d", tr.Crashes(), tr.Rejoins())
	}
	if tr.ReconnectAttempts() != tr.Rejoins() {
		t.Fatalf("scheduled path: reconnectAttempts %d != rejoins %d", tr.ReconnectAttempts(), tr.Rejoins())
	}
}

// TestMembershipTrackerAdmission scripts every rejoin verdict against a
// schedule walked to its first rejoin round.
func TestMembershipTrackerAdmission(t *testing.T) {
	cfg := ChurnConfig{Rate: 0.25, DownSteps: 2, MaxRejoins: 2}
	const seed, workers = 17, 6

	tr := NewMembershipTracker(cfg, seed, workers)
	rejoinStep, rejoinWorker := -1, -1
	for s := 0; s <= 200 && rejoinStep < 0; s++ {
		phases := tr.BeginRound(s)
		for w, p := range phases {
			if p == ChurnRejoin {
				rejoinStep, rejoinWorker = s, w
				break
			}
		}
	}
	if rejoinStep < 0 {
		t.Fatal("dead fixture: no rejoin within 200 steps")
	}

	if v := tr.Admit(-1, rejoinStep, 1); v != RejoinRejectUnknownWorker {
		t.Fatalf("negative id: %v", v)
	}
	if v := tr.Admit(workers, rejoinStep, 1); v != RejoinRejectUnknownWorker {
		t.Fatalf("out-of-range id: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep-1, 1); v != RejoinRejectWrongStep {
		t.Fatalf("stale step: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 0); v != RejoinRejectBadAttempts {
		t.Fatalf("zero attempts: %v", v)
	}
	liveWorker := -1
	for w := 0; w < workers; w++ {
		if w != rejoinWorker && cfg.Timeline(seed, w).Phase(rejoinStep) == ChurnLive {
			liveWorker = w
			break
		}
	}
	if liveWorker >= 0 {
		if v := tr.Admit(liveWorker, rejoinStep, 1); v != RejoinRejectNotScheduled {
			t.Fatalf("live worker rejoin: %v", v)
		}
	}
	if tr.Rejoins() != 0 || tr.ReconnectAttempts() != 0 {
		t.Fatalf("rejections mutated counters: rejoins=%d attempts=%d", tr.Rejoins(), tr.ReconnectAttempts())
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 1); v != RejoinAdmit {
		t.Fatalf("scheduled rejoin: %v", v)
	}
	if v := tr.Admit(rejoinWorker, rejoinStep, 1); v != RejoinRejectDuplicate {
		t.Fatalf("double admit: %v", v)
	}
	if tr.Rejoins() != 1 || tr.RoundRejoins() != 1 || tr.ReconnectAttempts() != 1 {
		t.Fatalf("counters after one admit: rejoins=%d round=%d attempts=%d",
			tr.Rejoins(), tr.RoundRejoins(), tr.ReconnectAttempts())
	}
}

// FuzzMembershipTracker fuzzes the tracker's invariants against arbitrary
// configurations and handshake sequences: the incremental state machine must
// agree with the schedule's timeline, queried ahead and then behind, at
// every (step, worker), no worker is admitted
// twice in a round or before its scheduled downtime elapses, and the
// counters always agree with the verdicts issued.
func FuzzMembershipTracker(f *testing.F) {
	f.Add([]byte{3, 40, 2, 1, 9, 30, 0, 1, 2, 3})
	f.Add([]byte{7, 70, 1, 0, 200, 50, 5, 5, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := int(data[0])%8 + 2
		cfg := ChurnConfig{
			Rate:       float64(1+int(data[1])%90) / 100,
			DownSteps:  1 + int(data[2])%4,
			MaxRejoins: int(data[3]) % 3,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated config invalid: %v", err)
		}
		seed := int64(data[4])
		steps := 1 + int(data[5])%40
		script := data[6:]

		tr := NewMembershipTracker(cfg, seed, n)
		timelines := make([]*ChurnTimeline, n)
		for w := range timelines {
			timelines[w] = cfg.Timeline(seed, w)
		}
		lookahead := 1 + int(data[2])%7
		lastCrash := make([]int, n)
		for w := range lastCrash {
			lastCrash[w] = -1
		}
		wantCrashes, wantRejoins, wantAttempts := 0, 0, 0
		for s := 0; s <= steps; s++ {
			phases := tr.BeginRound(s)
			for w := 0; w < n; w++ {
				checkTimeline(t, timelines[w], tr, s, w, (s+w)%lookahead)
				switch phases[w] {
				case ChurnCrash:
					wantCrashes++
					lastCrash[w] = s
				case ChurnRejoin:
					if lastCrash[w] < 0 || s != lastCrash[w]+cfg.DownSteps {
						t.Fatalf("step %d worker %d: rejoin before downSteps %d elapsed (crash at %d)",
							s, w, cfg.DownSteps, lastCrash[w])
					}
				}
			}

			// Scripted handshakes: arbitrary (worker, step offset,
			// attempts) triples, then the legitimate admissions.
			admitted := make([]bool, n)
			for len(script) >= 3 {
				b0, b1, b2 := script[0], script[1], script[2]
				script = script[3:]
				worker := int(b0) - 2
				step := s - 2 + int(b1)%5
				attempts := int(b2) - 1
				before := tr.Rejoins()
				v := tr.Admit(worker, step, attempts)
				legit := worker >= 0 && worker < n && step == s &&
					attempts >= 1 && phases[worker] == ChurnRejoin &&
					!admitted[worker]
				if legit != (v == RejoinAdmit) {
					t.Fatalf("step %d: handshake (worker %d step %d attempts %d) verdict %v, legit=%v",
						s, worker, step, attempts, v, legit)
				}
				if v == RejoinAdmit {
					admitted[worker] = true
					wantRejoins++
					wantAttempts += attempts
				} else if tr.Rejoins() != before {
					t.Fatalf("step %d: rejection %v mutated rejoin counter", s, v)
				}
				if b0%4 == 0 {
					break // vary how many scripted handshakes land per round
				}
			}
			for w := 0; w < n; w++ {
				if phases[w] != ChurnRejoin {
					continue
				}
				switch v := tr.Admit(w, s, 1); v {
				case RejoinAdmit:
					if admitted[w] {
						t.Fatalf("step %d worker %d: double admit accepted", s, w)
					}
					wantRejoins++
					wantAttempts++
				case RejoinRejectDuplicate:
					if !admitted[w] {
						t.Fatalf("step %d worker %d: duplicate verdict without prior admit", s, w)
					}
				default:
					t.Fatalf("step %d worker %d: scheduled rejoin verdict %v", s, w, v)
				}
				if v := tr.Admit(w, s, 1); v != RejoinRejectDuplicate {
					t.Fatalf("step %d worker %d: double admit verdict %v", s, w, v)
				}
			}
			if tr.PendingRejoins() != 0 {
				t.Fatalf("step %d: pending rejoins after admitting all scheduled", s)
			}
		}
		if tr.Crashes() != wantCrashes {
			t.Fatalf("crashes %d, want %d (phases observed)", tr.Crashes(), wantCrashes)
		}
		if tr.Rejoins() != wantRejoins {
			t.Fatalf("rejoins %d, want %d (admits issued)", tr.Rejoins(), wantRejoins)
		}
		if tr.ReconnectAttempts() != wantAttempts {
			t.Fatalf("reconnectAttempts %d, want %d", tr.ReconnectAttempts(), wantAttempts)
		}
	})
}
