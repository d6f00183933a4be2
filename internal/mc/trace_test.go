package mc

import (
	"math/rand"
	"strings"
	"testing"

	"guidedta/internal/ta"
)

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {2, "1"}, {10, "5"}, {5, "2.5"}, {11, "5.5"},
	}
	for _, tt := range tests {
		if got := TimeString(tt.in); got != tt.want {
			t.Errorf("TimeString(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestConcretizeEqualityTiming(t *testing.T) {
	// t == 5 guards (the recipe pattern) pin firing times exactly.
	s := ta.NewSystem("eq")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInvariant(l0, ta.LE(x, 5))
	a.SetInvariant(l1, ta.LE(x, 3))
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.EQ(x, 5)...).Reset(x).Done()
	a.Edge(l1, l2).When(ta.EQ(x, 3)...).Done()
	goal := Goal{Locs: []LocRequirement{{0, l2}}}
	res, err := Explore(s, goal, DefaultOptions(DFS))
	if err != nil || !res.Found {
		t.Fatalf("explore: %v found=%v", err, res.Found)
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].Time != 5*Half || steps[1].Time != 8*Half {
		t.Errorf("times %d,%d want 10,16", steps[0].Time, steps[1].Time)
	}
}

func TestConcretizeStrictBoundsHalfUnits(t *testing.T) {
	// x > 1 with invariant x < 2 has no integer solution but 1.5 works.
	s := ta.NewSystem("strict")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInvariant(l0, ta.LT(x, 2))
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.GT(x, 1)).Done()
	goal := Goal{Locs: []LocRequirement{{0, l1}}}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil || !res.Found {
		t.Fatalf("explore: %v found=%v", err, res.Found)
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// Earliest half-unit time in (1,2) is 1.5.
	if got := TimeString(steps[0].Time); got != "1.5" {
		t.Errorf("strict-bound firing time %s, want 1.5", got)
	}
}

func TestConcretizeGreedyFallback(t *testing.T) {
	// Guard y<=1 && x>=5 at step 2 with y reset at step 1 forces step 1 to
	// happen no earlier than t=4; the greedy earliest choice (t=0) fails
	// and the Bellman–Ford fallback must produce a feasible schedule.
	s := ta.NewSystem("fallback")
	x := s.AddClock("x")
	y := s.AddClock("y")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Reset(y).Done()
	a.Edge(l1, l2).When(ta.LE(y, 1), ta.GE(x, 5)).Done()
	s.MustFreeze()
	trace := []Transition{
		{Chan: -1, A1: 0, E1: 0, A2: -1, E2: -1},
		{Chan: -1, A1: 0, E1: 1, A2: -1, E2: -1},
	}
	steps, err := Concretize(s, trace)
	if err != nil {
		t.Fatalf("Concretize: %v", err)
	}
	t1, t2 := steps[0].Time, steps[1].Time
	if t2-t1 > 1*Half {
		t.Errorf("y<=1 violated: gap %d half units", t2-t1)
	}
	if t2 < 5*Half {
		t.Errorf("x>=5 violated: t2=%d half units", t2)
	}
	if t1 > t2 {
		t.Error("non-monotone schedule")
	}
}

func TestConcretizeDiagonalGuard(t *testing.T) {
	// x - y <= 2 where x resets at step 1 and y at step 2 bounds the gap
	// between the two reset times... here y resets after x so x-y = T3-T1
	// evaluated... exercise the diagonal branch for coverage and sanity.
	s := ta.NewSystem("diag")
	x := s.AddClock("x")
	y := s.AddClock("y")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	l3 := a.AddLocation("l3", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Reset(x).Done()
	a.Edge(l1, l2).Reset(y).When(ta.GE(x, 3)).Done()
	a.Edge(l2, l3).When(ta.Diff(x, y, ta.LE(x, 4).B)).Done() // x - y <= 4
	goal := Goal{Locs: []LocRequirement{{0, l3}}}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil || !res.Found {
		t.Fatalf("explore: %v found=%v", err, res.Found)
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// x-y = T2 - T1 must be <= 4 and >= 3 (guard x>=3 at step 2).
	gap := steps[1].Time - steps[0].Time
	if gap < 3*Half || gap > 4*Half {
		t.Errorf("reset gap %d half units, want in [6,8]", gap)
	}
}

func TestSolveDifferenceConstraintsFallback(t *testing.T) {
	// T2 >= 10 (T0-T2 <= -10) and T2-T1 <= 2: the greedy pass sets T1=0 and
	// then hits the violated upper bound, so the exact solver must run.
	cons := []diffConstraint{
		{u: 0, v: 1, w: 0},   // T1 >= 0
		{u: 1, v: 2, w: 0},   // T2 >= T1
		{u: 2, v: 1, w: 2},   // T2 - T1 <= 2
		{u: 0, v: 2, w: -10}, // T2 >= 10
	}
	times, scale, err := solveDifferenceConstraints(2, cons)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		t.Errorf("scale = %d, want 1 (all bounds weak)", scale)
	}
	if times[0] != 0 {
		t.Errorf("T0 = %d, want 0", times[0])
	}
	for _, c := range cons {
		if times[c.u]-times[c.v] > c.w {
			t.Errorf("constraint T%d-T%d<=%d violated by %v", c.u, c.v, c.w, times)
		}
	}
}

func TestSolveDifferenceConstraintsInfeasible(t *testing.T) {
	cons := []diffConstraint{
		{u: 0, v: 1, w: -5}, // T1 >= 5
		{u: 1, v: 0, w: 2},  // T1 <= 2
	}
	if _, _, err := solveDifferenceConstraints(1, cons); err == nil {
		t.Error("infeasible system accepted")
	}
}

func TestConcretizeRejectsBogusTrace(t *testing.T) {
	s, _ := chainSystem(t)
	s.MustFreeze()
	// Edge 1 from the initial location is wrong (source is l1).
	bogus := []Transition{{Chan: -1, A1: 0, E1: 1, A2: -1, E2: -1}}
	if _, err := Concretize(s, bogus); err == nil {
		t.Error("bogus trace accepted")
	}
}

func TestConcretizeRejectsIntGuardViolation(t *testing.T) {
	s := ta.NewSystem("ig")
	s.AddClock("x")
	s.Table.DeclareVar("n", 0)
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Guard("n == 1").Done()
	s.MustFreeze()
	bogus := []Transition{{Chan: -1, A1: 0, E1: 0, A2: -1, E2: -1}}
	if _, err := Concretize(s, bogus); err == nil ||
		!strings.Contains(err.Error(), "integer guard") {
		t.Errorf("got %v", err)
	}
}

func TestReplayDiscrete(t *testing.T) {
	s, goal := chainSystem(t)
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil || !res.Found {
		t.Fatal("explore failed")
	}
	locsAt, envAt, err := ReplayDiscrete(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(locsAt) != len(res.Trace)+1 || len(envAt) != len(locsAt) {
		t.Fatalf("replay lengths %d/%d", len(locsAt), len(envAt))
	}
	if locsAt[0][0] != 0 || locsAt[1][0] != 1 || locsAt[2][0] != 2 {
		t.Errorf("location sequence %v", locsAt)
	}
	// Replay of a bogus trace errors.
	bogus := []Transition{{Chan: -1, A1: 0, E1: 1, A2: -1, E2: -1}}
	if _, _, err := ReplayDiscrete(s, bogus); err == nil {
		t.Error("bogus replay accepted")
	}
}

func TestFormatTrace(t *testing.T) {
	s, goal := chainSystem(t)
	res, _ := Explore(s, goal, DefaultOptions(BFS))
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTrace(s, steps)
	if !strings.Contains(out, "@2 A.l0->l1") || !strings.Contains(out, "@5 A.l1->l2") {
		t.Errorf("FormatTrace:\n%s", out)
	}
}

func TestValidateConcrete(t *testing.T) {
	s, goal := chainSystem(t)
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil || !res.Found {
		t.Fatal("explore failed")
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateConcrete(s, steps); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Corrupt a timestamp: firing the first edge too early violates its
	// guard x >= 2.
	bad := append([]ConcreteStep{}, steps...)
	bad[0].Time = 1 * Half
	if err := ValidateConcrete(s, bad); err == nil {
		t.Error("early firing accepted")
	}
	// Non-monotone times must also fail.
	bad = append([]ConcreteStep{}, steps...)
	bad[1].Time = steps[0].Time - 1
	if err := ValidateConcrete(s, bad); err == nil {
		t.Error("non-monotone schedule accepted")
	}
}

// Property: on random models, every found trace concretizes to a schedule
// that passes the independent validator.
func TestConcretizeAlwaysValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		sys, goal := randomSystem(rng)
		res, err := Explore(sys, goal, DefaultOptions(DFS))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		steps, err := Concretize(sys, res.Trace)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateConcrete(sys, steps); err != nil {
			t.Fatalf("trial %d: concretized schedule invalid: %v", trial, err)
		}
	}
}

// Pre-fix, Concretize knew nothing about urgency: for a trace through an
// urgent location it happily returned the greedy schedule that fires the
// entry transition early and then sits inside the urgent location waiting
// for the next guard — a schedule the semantics (and the engine, which
// never delays there) do not admit. The urgency constraint T[s] <= T[s-1]
// forces both transitions to the same instant.
func TestConcretizeUrgentNoStall(t *testing.T) {
	s := ta.NewSystem("urgent-stall")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Urgent)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Done()                   // can fire at any time
	a.Edge(l1, l2).When(ta.GE(x, 3)).Done() // needs x >= 3, but l1 forbids delay
	goal := Goal{Locs: []LocRequirement{{0, l2}}}

	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Trace) != 2 {
		t.Fatalf("found=%v trace=%d, want goal via 2 steps", res.Found, len(res.Trace))
	}

	locsAt, envAt, err := ReplayDiscrete(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !NoDelayAt(s, locsAt[1], envAt[1]) {
		t.Fatal("NoDelayAt should report the urgent location l1")
	}
	if NoDelayAt(s, locsAt[0], envAt[0]) {
		t.Fatal("NoDelayAt misreports the normal location l0")
	}

	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateConcrete(s, steps); err != nil {
		t.Fatal(err)
	}
	// Both transitions must fire at t=3: delaying to 3 happens in l0, and
	// the urgent l1 is exited in the same instant it is entered.
	if steps[0].Time != 3*Half || steps[1].Time != 3*Half {
		t.Errorf("times = %s, %s; want 3, 3 (no stall inside the urgent location)",
			TimeString(steps[0].Time), TimeString(steps[1].Time))
	}
}

// Same stall scenario through an enabled urgent-channel sync: once the
// peer is ready the sync must fire without delay, so the concretized
// schedule may not park time between readiness and the sync.
func TestConcretizeUrgentChannelNoStall(t *testing.T) {
	s := ta.NewSystem("urgent-chan-stall")
	x := s.AddClock("x")
	s.AddChannel("go", true) // urgent
	p := s.AddAutomaton("P")
	p0 := p.AddLocation("p0", ta.Normal)
	p1 := p.AddLocation("p1", ta.Normal)
	p2 := p.AddLocation("p2", ta.Normal)
	p.SetInit(p0)
	p.Edge(p0, p1).Done()
	p.Edge(p1, p2).Sync("go", ta.Send).Done()
	q := s.AddAutomaton("Q")
	q0 := q.AddLocation("q0", ta.Normal)
	q1 := q.AddLocation("q1", ta.Normal)
	q.SetInit(q0)
	q.Edge(q0, q1).Sync("go", ta.Recv).Done()
	goal := Goal{
		Locs: []LocRequirement{{0, p2}},
		Expr: nil,
	}
	_ = x

	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("goal not found")
	}
	locsAt, envAt, err := ReplayDiscrete(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// After P steps to p1 the urgent sync is enabled: delay is forbidden.
	sawUrgent := false
	for i := range locsAt {
		if NoDelayAt(s, locsAt[i], envAt[i]) {
			sawUrgent = true
		}
	}
	if !sawUrgent {
		t.Fatal("no state along the trace reports an enabled urgent sync")
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateConcrete(s, steps); err != nil {
		t.Fatal(err)
	}
	// The times audit: whenever the state before step i forbids delay, the
	// step fires at the same instant as its predecessor.
	prev := int64(0)
	for i, st := range steps {
		if NoDelayAt(s, locsAt[i], envAt[i]) && st.Time != prev {
			t.Errorf("step %d fires at %s but its source state forbids delay since %s",
				i, TimeString(st.Time), TimeString(prev))
		}
		prev = st.Time
	}
}

// A chain of strict constraints can be dense-time feasible yet have no
// half-unit schedule: x < 1 at the reset, then gt > 1 and x < 1 at the
// exit needs T1 < 1 < T2 < T1 + 1, e.g. T1 = 0.9, T2 = 1.5 — but on the
// half grid T1 <= 0.5 forces T2 <= 1.0, contradicting T2 > 1. The old
// solver folded strictness into a fixed -1 on the half grid and reported
// such traces as inconsistent (a false negative cycle, found by the fuzz
// harness); ConcretizeFine must schedule them on a finer grid instead.
func TestConcretizeFineStrictChain(t *testing.T) {
	s := ta.NewSystem("strict-chain")
	gt := s.AddClock("gt")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.LT(x, 1)).Reset(x).Done()
	a.Edge(l1, l2).When(ta.GT(gt, 1), ta.LT(x, 1)).Done()
	goal := Goal{Locs: []LocRequirement{{0, l2}}}

	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Trace) != 2 {
		t.Fatalf("found=%v trace=%d, want goal via 2 steps", res.Found, len(res.Trace))
	}

	if _, err := Concretize(s, res.Trace); err == nil {
		t.Error("Concretize accepted a trace with no half-unit schedule")
	} else if !strings.Contains(err.Error(), "granularity") {
		t.Errorf("Concretize failed with %q, want the fine-granularity hint", err)
	}

	steps, denom, err := ConcretizeFine(s, res.Trace)
	if err != nil {
		t.Fatalf("ConcretizeFine rejected a dense-time-feasible trace: %v", err)
	}
	if denom <= Half || denom%Half != 0 {
		t.Fatalf("denom = %d, want a multiple of %d greater than it", denom, Half)
	}
	if err := ValidateConcreteAt(s, steps, denom); err != nil {
		t.Fatal(err)
	}
	// The strict bounds as rationals: T1 < 1, T2 > 1, T2 - T1 < 1.
	t1, t2 := steps[0].Time, steps[1].Time
	if !(t1 < denom && t2 > denom && t2-t1 < denom) {
		t.Errorf("schedule %s, %s (denom %d) violates the strict chain",
			TimeStringAt(t1, denom), TimeStringAt(t2, denom), denom)
	}
}

// A genuinely inconsistent trace must still be rejected at every grid:
// weak bounds x <= 1 at the reset and gt >= 3 with x <= 1 at the exit
// force T2 >= 3 and T2 <= T1 + 1 <= 2 over dense time too.
func TestConcretizeFineRejectsInfeasible(t *testing.T) {
	s := ta.NewSystem("infeasible")
	gt := s.AddClock("gt")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	e0 := a.Edge(l0, l1).When(ta.LE(x, 1)).Reset(x).Done()
	e1 := a.Edge(l1, l2).When(ta.GE(gt, 3), ta.LE(x, 1)).Done()
	s.MustFreeze()
	trace := []Transition{
		{Chan: -1, A1: 0, E1: e0, A2: -1, E2: -1},
		{Chan: -1, A1: 0, E1: e1, A2: -1, E2: -1},
	}
	if _, _, err := ConcretizeFine(s, trace); err == nil {
		t.Error("ConcretizeFine accepted an inconsistent trace")
	}
}

func TestTimeStringAt(t *testing.T) {
	for _, tt := range []struct {
		t, denom int64
		want     string
	}{
		{24, 12, "2"}, {6, 12, "1/2"}, {9, 12, "3/4"}, {3, 2, "1.5"}, {0, 12, "0"},
	} {
		if got := TimeStringAt(tt.t, tt.denom); got != tt.want {
			t.Errorf("TimeStringAt(%d, %d) = %q, want %q", tt.t, tt.denom, got, tt.want)
		}
	}
}

// TestTraceCheckersRejectIllegalSteps pins the legal-step rule every trace
// checker shares: each row breaks one rule of a legal trace and must be
// refused with an error, never a panic, by all four entry points.
func TestTraceCheckersRejectIllegalSteps(t *testing.T) {
	s := ta.NewSystem("steps")
	ch := s.AddChannel("go", false)
	p := s.AddAutomaton("P")
	p0 := p.AddLocation("p0", ta.Committed)
	p1 := p.AddLocation("p1", ta.Normal)
	p2 := p.AddLocation("p2", ta.Normal)
	p.SetInit(p0)
	pTau := p.Edge(p0, p1).Done()
	pSend := p.Edge(p1, p2).Sync("go", ta.Send).Done()
	q := s.AddAutomaton("Q")
	q0 := q.AddLocation("q0", ta.Normal)
	q1 := q.AddLocation("q1", ta.Normal)
	q.SetInit(q0)
	qTau := q.Edge(q0, q1).Done()
	qRecv := q.Edge(q0, q1).Sync("go", ta.Recv).Done()

	internal := func(a, e int) Transition { return Transition{Chan: -1, A1: a, E1: e, A2: -1, E2: -1} }
	sync := func(a1, e1, a2, e2 int) Transition { return Transition{Chan: ch, A1: a1, E1: e1, A2: a2, E2: e2} }
	if err := CheckTrace(s, Goal{}, []Transition{internal(0, pTau), sync(0, pSend, 1, qRecv)}); err != nil {
		t.Fatalf("legal trace refused: %v", err)
	}
	rows := []struct {
		name  string
		trace []Transition
	}{
		{"moves while another automaton is committed", []Transition{internal(1, qTau)}},
		{"sync of two internal edges", []Transition{sync(0, pTau, 1, qTau)}},
		{"sender and receiver swapped", []Transition{internal(0, pTau), sync(1, qRecv, 0, pSend)}},
		{"automaton out of range", []Transition{internal(2, 0)}},
		{"edge out of range", []Transition{internal(0, 9)}},
		{"receiver out of range", []Transition{internal(0, pTau), sync(0, pSend, 1, 9)}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			steps := make([]ConcreteStep, len(r.trace))
			for i, tr := range r.trace {
				steps[i].Trans = tr
			}
			checks := map[string]func() error{
				"CheckTrace": func() error { return CheckTrace(s, Goal{}, r.trace) },
				"ConcretizeFine": func() error {
					_, _, err := ConcretizeFine(s, r.trace)
					return err
				},
				"ValidateConcreteAt": func() error { return ValidateConcreteAt(s, steps, Half) },
				"ReplayDiscrete": func() error {
					_, _, err := ReplayDiscrete(s, r.trace)
					return err
				},
			}
			for name, check := range checks {
				func() {
					defer func() {
						if v := recover(); v != nil {
							t.Errorf("%s panicked: %v", name, v)
						}
					}()
					if err := check(); err == nil {
						t.Errorf("%s accepted the trace", name)
					}
				}()
			}
		})
	}
}
