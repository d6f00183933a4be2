package mc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// chainSystem builds l0 --(x>=2; x:=0)--> l1 --(x>=3)--> l2 with invariant
// x<=2 at l0, so the earliest schedule fires at t=2 and t=5.
func chainSystem(t *testing.T) (*ta.System, Goal) {
	t.Helper()
	s := ta.NewSystem("chain")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInvariant(l0, ta.LE(x, 2))
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.GE(x, 2)).Reset(x).Done()
	a.Edge(l1, l2).When(ta.GE(x, 3)).Done()
	goal := Goal{Desc: "reach l2", Locs: []LocRequirement{{Automaton: 0, Location: l2}}}
	return s, goal
}

func allOrders() []SearchOrder { return []SearchOrder{BFS, DFS, BSH} }

func TestReachableChainAllOrders(t *testing.T) {
	for _, order := range allOrders() {
		t.Run(order.String(), func(t *testing.T) {
			s, goal := chainSystem(t)
			res, err := Explore(s, goal, DefaultOptions(order))
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !res.Found {
				t.Fatalf("goal not found; stats %v", res.Stats)
			}
			if len(res.Trace) != 2 {
				t.Fatalf("trace length %d, want 2", len(res.Trace))
			}
			steps, err := Concretize(s, res.Trace)
			if err != nil {
				t.Fatalf("Concretize: %v", err)
			}
			if steps[0].Time != 2*Half || steps[1].Time != 5*Half {
				t.Errorf("times = %d, %d (half units), want 4, 10",
					steps[0].Time, steps[1].Time)
			}
		})
	}
}

func TestUnreachableByTiming(t *testing.T) {
	s := ta.NewSystem("blocked")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInvariant(l0, ta.LE(x, 3))
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.GE(x, 5)).Done() // invariant forbids waiting to 5
	goal := Goal{Locs: []LocRequirement{{0, l1}}}
	for _, order := range allOrders() {
		res, err := Explore(s, goal, DefaultOptions(order))
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if res.Found {
			t.Errorf("%v: found a goal that timing makes unreachable", order)
		}
		if res.Abort != AbortNone {
			t.Errorf("%v: unexpected abort %q", order, res.Abort)
		}
	}
}

func TestGoalInInitialState(t *testing.T) {
	s, _ := chainSystem(t)
	goal := Goal{Locs: []LocRequirement{{0, 0}}}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Trace) != 0 {
		t.Errorf("initial goal: found=%v trace=%d", res.Found, len(res.Trace))
	}
}

func TestSyncAndIntGuards(t *testing.T) {
	s := ta.NewSystem("sync")
	x := s.AddClock("x")
	s.Table.DeclareVar("n", 0)
	s.AddChannel("go", false)
	p := s.AddAutomaton("P")
	p0 := p.AddLocation("p0", ta.Normal)
	p1 := p.AddLocation("p1", ta.Normal)
	p.SetInit(p0)
	p.Edge(p0, p1).When(ta.GE(x, 1)).Sync("go", ta.Send).Assign("n := n + 10").Done()
	q := s.AddAutomaton("Q")
	q0 := q.AddLocation("q0", ta.Normal)
	q1 := q.AddLocation("q1", ta.Normal)
	q.SetInit(q0)
	q.Edge(q0, q1).Sync("go", ta.Recv).Assign("n := n * 2").Done()

	nExpr := expr.MustParse("n == 20", s.Table) // sender update first: (0+10)*2
	goal := Goal{Expr: nExpr}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("sync goal not reached")
	}
	tr := res.Trace[0]
	if tr.Internal() || tr.Chan != 0 || tr.A1 != 0 || tr.A2 != 1 {
		t.Errorf("unexpected transition %+v", tr)
	}
	if got := tr.Format(s); !strings.Contains(got, "go:") {
		t.Errorf("Format = %q", got)
	}
}

func TestNoSelfSync(t *testing.T) {
	// An automaton with both ! and ? on the same channel must not sync with
	// itself.
	s := ta.NewSystem("self")
	s.AddClock("x")
	s.AddChannel("c", false)
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Sync("c", ta.Send).Done()
	a.Edge(l0, l1).Sync("c", ta.Recv).Done()
	goal := Goal{Locs: []LocRequirement{{0, l1}}}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("self-synchronization must be impossible")
	}
}

// fischer builds Fischer's mutual exclusion protocol for two processes.
// With the req invariant (x<=k) and the strict wait guard (x>k) mutual
// exclusion holds; dropping the invariant breaks it.
func fischer(t *testing.T, withInvariant bool) (*ta.System, Goal) {
	return fischerN(t, 2, withInvariant)
}

// fischerN is fischer for n processes; the goal is a violation between
// the first two.
func fischerN(t testing.TB, n int, withInvariant bool) (*ta.System, Goal) {
	t.Helper()
	s := ta.NewSystem("fischer")
	s.Table.DeclareVar("id", 0)
	const k = 2
	var csLocs []LocRequirement
	for pid := 1; pid <= n; pid++ {
		name := fmt.Sprintf("P%d", pid)
		x := s.AddClock("x" + name)
		a := s.AddAutomaton(name)
		idle := a.AddLocation("idle", ta.Normal)
		req := a.AddLocation("req", ta.Normal)
		wait := a.AddLocation("wait", ta.Normal)
		cs := a.AddLocation("cs", ta.Normal)
		if withInvariant {
			a.SetInvariant(req, ta.LE(x, k))
		}
		a.SetInit(idle)
		a.Edge(idle, req).Guard("id == 0").Reset(x).Done()
		a.Edge(req, wait).Assign(fmt.Sprintf("id := %d", pid)).Reset(x).Done()
		a.Edge(wait, cs).When(ta.GT(x, k)).Guard(fmt.Sprintf("id == %d", pid)).Done()
		a.Edge(wait, req).Guard("id == 0").Reset(x).Done()
		a.Edge(cs, idle).Assign("id := 0").Done()
		csLocs = append(csLocs, LocRequirement{Automaton: pid - 1, Location: cs})
	}
	return s, Goal{Desc: "mutex violation", Locs: csLocs[:2]}
}

func TestFischerMutexHolds(t *testing.T) {
	for _, order := range allOrders() {
		t.Run(order.String(), func(t *testing.T) {
			s, goal := fischer(t, true)
			res, err := Explore(s, goal, DefaultOptions(order))
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				t.Error("mutual exclusion violated in correct Fischer")
			}
			if res.Stats.StatesExplored == 0 {
				t.Error("no states explored")
			}
		})
	}
}

func TestFischerBrokenIsCaught(t *testing.T) {
	s, goal := fischer(t, false)
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("broken Fischer should violate mutual exclusion")
	}
	// The diagnostic trace must be replayable and concretizable.
	if _, err := Concretize(s, res.Trace); err != nil {
		t.Errorf("Concretize of violation trace: %v", err)
	}
}

func TestOptionVariantsAgree(t *testing.T) {
	// Inclusion and active-clock reduction must not change verification
	// answers, only effort.
	variants := []Options{
		DefaultOptions(BFS),
		func() Options { o := DefaultOptions(BFS); o.Inclusion = false; return o }(),
		func() Options { o := DefaultOptions(BFS); o.ActiveClocks = false; return o }(),
		func() Options { o := DefaultOptions(DFS); o.Inclusion = false; o.ActiveClocks = false; return o }(),
	}
	for i, opts := range variants {
		s, goal := fischer(t, true)
		res, err := Explore(s, goal, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if res.Found {
			t.Errorf("variant %d: wrong verification answer", i)
		}
		s2, goal2 := chainSystem(t)
		res2, err := Explore(s2, goal2, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !res2.Found {
			t.Errorf("variant %d: chain goal missed", i)
		}
	}
}

func TestCommittedLocationPriority(t *testing.T) {
	// B sits in a committed location; only B may move first even though A
	// has an enabled edge.
	s := ta.NewSystem("committed")
	s.AddClock("x")
	s.Table.DeclareVar("first", 0)
	a := s.AddAutomaton("A")
	a0 := a.AddLocation("a0", ta.Normal)
	a1 := a.AddLocation("a1", ta.Normal)
	a.SetInit(a0)
	a.Edge(a0, a1).Guard("first == 0").Assign("first := 1").Done()
	b := s.AddAutomaton("B")
	b0 := b.AddLocation("b0", ta.Committed)
	b1 := b.AddLocation("b1", ta.Normal)
	b.SetInit(b0)
	b.Edge(b0, b1).Guard("first == 0").Assign("first := 2").Done()

	goalA := Goal{Expr: expr.MustParse("first == 1", s.Table)}
	res, err := Explore(s, goalA, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("A moved first despite B being committed")
	}
	goalB := Goal{Expr: expr.MustParse("first == 2", s.Table)}
	res, err = Explore(s, goalB, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("B could not move from its committed location")
	}
}

func TestUrgentLocationForbidsDelay(t *testing.T) {
	// From an urgent location, an edge guarded x>=1 can never fire if x==0
	// on entry.
	s := ta.NewSystem("urgent")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Urgent)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.GE(x, 1)).Done()
	goal := Goal{Locs: []LocRequirement{{0, l1}}}
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("delay happened in an urgent location")
	}
}

func TestUrgentChannelForbidsDelay(t *testing.T) {
	// With an urgent sync enabled, time cannot pass, so an independent edge
	// guarded x>=1 cannot fire first.
	build := func(urgent bool) (*ta.System, Goal) {
		s := ta.NewSystem("uchan")
		x := s.AddClock("x")
		s.AddChannel("u", urgent)
		p := s.AddAutomaton("P")
		p0 := p.AddLocation("p0", ta.Normal)
		p1 := p.AddLocation("p1", ta.Normal)
		p.SetInit(p0)
		p.Edge(p0, p1).Sync("u", ta.Send).Done()
		q := s.AddAutomaton("Q")
		q0 := q.AddLocation("q0", ta.Normal)
		q1 := q.AddLocation("q1", ta.Normal)
		q.SetInit(q0)
		q.Edge(q0, q1).Sync("u", ta.Recv).Done()
		r := s.AddAutomaton("R")
		r0 := r.AddLocation("r0", ta.Normal)
		r1 := r.AddLocation("r1", ta.Normal)
		r.SetInit(r0)
		r.Edge(r0, r1).When(ta.GE(x, 1)).Done()
		return s, Goal{Locs: []LocRequirement{{2, r1}, {0, p0}}}
	}
	s, goal := build(true)
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("R fired a delayed edge while an urgent sync was pending")
	}
	s, goal = build(false)
	res, err = Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("with a non-urgent channel the delayed edge should fire first")
	}
}

func TestAbortLimits(t *testing.T) {
	// An infinite-state counter machine: test every cutoff.
	build := func() (*ta.System, Goal) {
		s := ta.NewSystem("counter")
		s.AddClock("x")
		s.Table.DeclareVar("n", 0)
		a := s.AddAutomaton("A")
		l0 := a.AddLocation("l0", ta.Normal)
		a.SetInit(l0)
		a.Edge(l0, l0).Assign("n := n + 1").Done()
		return s, Goal{Expr: expr.MustParse("n < 0", s.Table)}
	}
	t.Run("states", func(t *testing.T) {
		s, goal := build()
		opts := DefaultOptions(BFS)
		opts.MaxStates = 100
		res, err := Explore(s, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Abort != AbortStates {
			t.Errorf("found=%v abort=%q", res.Found, res.Abort)
		}
	})
	t.Run("memory", func(t *testing.T) {
		s, goal := build()
		opts := DefaultOptions(DFS)
		opts.MaxMemory = 64 << 10
		res, err := Explore(s, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Abort != AbortMemory {
			t.Errorf("found=%v abort=%q", res.Found, res.Abort)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		s, goal := build()
		opts := DefaultOptions(BFS)
		opts.Timeout = time.Millisecond
		res, err := Explore(s, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Abort != AbortTimeout {
			t.Errorf("found=%v abort=%q", res.Found, res.Abort)
		}
	})
}

func TestExtrapolationTerminatesUnboundedClock(t *testing.T) {
	// A self-loop that lets time diverge: with extrapolation the zone graph
	// is finite and the search terminates; the goal is unreachable.
	s := ta.NewSystem("diverge")
	x := s.AddClock("x")
	y := s.AddClock("y")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l0).When(ta.GE(y, 1)).Reset(y).Done()
	a.Edge(l0, l1).When(ta.GE(x, 10), ta.LE(y, 0)).When(ta.GE(y, 1)).Done() // contradictory: unreachable
	goal := Goal{Locs: []LocRequirement{{0, l1}}}
	opts := DefaultOptions(BFS)
	opts.MaxStates = 10000
	res, err := Explore(s, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("contradictory guard fired")
	}
	if res.Abort != AbortNone {
		t.Errorf("search did not terminate with extrapolation: %q", res.Abort)
	}
}

func TestBestTimeFindsFastestSchedule(t *testing.T) {
	// Two routes to the goal: a slow one available immediately in DFS
	// order and a fast one. BestTime must return the t=1 schedule.
	s := ta.NewSystem("race")
	gt := s.AddClock("gt") // global time, never reset
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	slow := a.AddLocation("slow", ta.Normal)
	goalLoc := a.AddLocation("goal", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, slow).When(ta.GE(x, 10)).Done()
	a.Edge(slow, goalLoc).Done()
	a.Edge(l0, goalLoc).When(ta.GE(x, 1)).Done()
	goal := Goal{Locs: []LocRequirement{{0, goalLoc}}}

	opts := DefaultOptions(BestTime)
	opts.TimeClock = gt
	opts.TimeHorizon = 100
	res, err := Explore(s, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("goal not found")
	}
	steps, err := Concretize(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	final := steps[len(steps)-1].Time
	if final != 1*Half {
		t.Errorf("BestTime schedule reaches goal at %s, want 1", TimeString(final))
	}
}

func TestBestTimeRequiresTimeClock(t *testing.T) {
	s, goal := chainSystem(t)
	if _, err := Explore(s, goal, DefaultOptions(BestTime)); err == nil {
		t.Error("BestTime without TimeClock should error")
	}
}

func TestBSHHashBitsValidation(t *testing.T) {
	s, goal := chainSystem(t)
	opts := DefaultOptions(BSH)
	opts.HashBits = 2
	if _, err := Explore(s, goal, opts); err == nil {
		t.Error("tiny hash table should be rejected")
	}
}

func TestBSHSmallTableStillSound(t *testing.T) {
	// With a small table hash collisions may prune states, but any result
	// found must be a genuine trace.
	s, goal := fischer(t, false)
	opts := DefaultOptions(BSH)
	opts.HashBits = 10
	res, err := Explore(s, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		if _, err := Concretize(s, res.Trace); err != nil {
			t.Errorf("BSH trace does not concretize: %v", err)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	s, goal := fischer(t, true)
	res, err := Explore(s, goal, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.StatesExplored == 0 || st.StatesStored == 0 || st.Transitions == 0 || st.MemBytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if !strings.Contains(st.String(), "explored=") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

func TestSearchOrderString(t *testing.T) {
	for order, want := range map[SearchOrder]string{BFS: "BFS", DFS: "DFS", BSH: "BSH", BestTime: "BestTime"} {
		if got := order.String(); got != want {
			t.Errorf("String(%d) = %q", int(order), got)
		}
	}
}

func TestGoalString(t *testing.T) {
	if (Goal{Desc: "hi"}).String() != "hi" {
		t.Error("Goal.String should use Desc")
	}
	if (Goal{}).String() == "" {
		t.Error("Goal.String should have a default")
	}
}

func TestDeadlockQuery(t *testing.T) {
	// l1 is a trap whose invariant eventually blocks time with no edge
	// out: a genuine timelock/deadlock. l2 keeps looping forever.
	build := func(withEscape bool) *ta.System {
		s := ta.NewSystem("dl")
		x := s.AddClock("x")
		a := s.AddAutomaton("A")
		l0 := a.AddLocation("l0", ta.Normal)
		l1 := a.AddLocation("l1", ta.Normal)
		a.SetInvariant(l1, ta.LE(x, 5))
		a.SetInit(l0)
		a.Edge(l0, l1).Reset(x).Done()
		a.Edge(l0, l0).When(ta.GE(x, 1)).Reset(x).Done()
		if withEscape {
			a.Edge(l1, l0).When(ta.LE(x, 5)).Reset(x).Done()
		}
		return s
	}

	s := build(false)
	res, err := Explore(s, Goal{Desc: "E<> deadlock", Deadlock: true}, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("deadlock in l1 not found")
	}
	if len(res.Trace) == 0 {
		t.Error("deadlock trace empty")
	}

	s = build(true)
	res, err = Explore(s, Goal{Deadlock: true}, DefaultOptions(BFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("deadlock reported for deadlock-free system")
	}
}

func TestDeadlockQueryWithPredicate(t *testing.T) {
	// Two traps; the predicate selects which one counts.
	s := ta.NewSystem("dl2")
	s.AddClock("x")
	s.Table.DeclareVar("w", 0)
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	t1 := a.AddLocation("trap1", ta.Normal)
	t2 := a.AddLocation("trap2", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, t1).Assign("w := 1").Done()
	a.Edge(l0, t2).Assign("w := 2").Done()
	goal := Goal{Deadlock: true, Expr: expr.MustParse("w == 2", s.Table)}
	res, err := Explore(s, goal, DefaultOptions(DFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("selected deadlock not found")
	}
	locs, _, err := replayStates(s, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if locs[len(locs)-1][0] != int32(t2) {
		t.Errorf("deadlock trace ends in %d, want trap2=%d", locs[len(locs)-1][0], t2)
	}
	_ = t1
}
