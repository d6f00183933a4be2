package ta

import (
	"reflect"
	"strings"
	"testing"

	"guidedta/internal/dbm"
	"guidedta/internal/expr"
)

// buildTwoProc builds a tiny two-automaton system with a channel sync,
// reused across tests.
func buildTwoProc(t *testing.T) (*System, int, int) {
	t.Helper()
	s := NewSystem("twoproc")
	x := s.AddClock("x")
	y := s.AddClock("y")
	s.Table.DeclareVar("n", 0)
	s.AddChannel("go", false)

	p := s.AddAutomaton("P")
	p0 := p.AddLocation("p0", Normal)
	p1 := p.AddLocation("p1", Normal)
	p.SetInvariant(p0, LE(x, 5))
	p.SetInit(p0)
	p.Edge(p0, p1).When(GE(x, 2)).Sync("go", Send).Assign("n := n + 1").Reset(x).Done()

	q := s.AddAutomaton("Q")
	q0 := q.AddLocation("q0", Normal)
	q1 := q.AddLocation("q1", Normal)
	q.SetInit(q0)
	q.Edge(q0, q1).Sync("go", Recv).Reset(y).Done()
	return s, x, y
}

func TestBuildAndFreeze(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !s.Frozen() {
		t.Error("Frozen() = false after Freeze")
	}
	p := s.Automata[0]
	if got := p.OutEdges(0); len(got) != 1 {
		t.Errorf("OutEdges(p0) = %v, want 1 edge", got)
	}
	if got := p.OutEdges(1); len(got) != 0 {
		t.Errorf("OutEdges(p1) = %v, want none", got)
	}
	// Freeze twice is a no-op.
	if err := s.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
}

func TestMutationAfterFreezePanics(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	s.MustFreeze()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on post-freeze mutation")
		}
	}()
	s.AddClock("z")
}

func TestConstraintConstructors(t *testing.T) {
	tests := []struct {
		name string
		c    ClockConstraint
		i, j int
		b    dbm.Bound
	}{
		{"GE", GE(2, 5), 0, 2, dbm.LE(-5)},
		{"GT", GT(2, 5), 0, 2, dbm.LT(-5)},
		{"LE", LE(2, 5), 2, 0, dbm.LE(5)},
		{"LT", LT(2, 5), 2, 0, dbm.LT(5)},
		{"Diff", Diff(1, 2, dbm.LT(3)), 1, 2, dbm.LT(3)},
	}
	for _, tt := range tests {
		if tt.c.I != tt.i || tt.c.J != tt.j || tt.c.B != tt.b {
			t.Errorf("%s: got %+v", tt.name, tt.c)
		}
	}
	eq := EQ(1, 7)
	if len(eq) != 2 || eq[0] != LE(1, 7) || eq[1] != GE(1, 7) {
		t.Errorf("EQ expansion wrong: %+v", eq)
	}
}

func TestConstraintString(t *testing.T) {
	s := NewSystem("s")
	x := s.AddClock("x")
	y := s.AddClock("y")
	tests := []struct {
		c    ClockConstraint
		want string
	}{
		{LE(x, 5), "x<=5"},
		{LT(x, 5), "x<5"},
		{GE(x, 5), "x>=5"},
		{GT(x, 5), "x>5"},
		{Diff(x, y, dbm.LT(3)), "x-y<3"},
	}
	for _, tt := range tests {
		if got := tt.c.String(s); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	newSys := func() *System {
		s := NewSystem("v")
		s.AddClock("x")
		s.AddChannel("u", true)
		a := s.AddAutomaton("A")
		a.AddLocation("l0", Normal)
		a.AddLocation("l1", Normal)
		return s
	}

	t.Run("empty system", func(t *testing.T) {
		s := NewSystem("e")
		if err := s.Validate(); err == nil {
			t.Error("want error for system without automata")
		}
	})
	t.Run("lower-bound invariant", func(t *testing.T) {
		s := newSys()
		s.Automata[0].SetInvariant(0, GE(1, 3))
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "upper bound") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("clock guard on urgent channel", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: 0, Dir: Send, ClockGuard: []ClockConstraint{GE(1, 1)}})
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "urgent") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad channel index", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: 7, Dir: Send})
		if err := s.Validate(); err == nil {
			t.Error("want error for channel index out of range")
		}
	})
	t.Run("bad location index", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 9, Chan: -1})
		if err := s.Validate(); err == nil {
			t.Error("want error for location out of range")
		}
	})
	t.Run("self constraint", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: -1,
			ClockGuard: []ClockConstraint{{I: 1, J: 1, B: dbm.LE(0)}}})
		if err := s.Validate(); err == nil {
			t.Error("want error for x-x constraint")
		}
	})
	t.Run("negative reset", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: -1, Resets: []ClockReset{{Clock: 1, Value: -2}}})
		if err := s.Validate(); err == nil {
			t.Error("want error for negative reset")
		}
	})
	t.Run("reset of reference clock", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: -1, Resets: []ClockReset{{Clock: 0}}})
		if err := s.Validate(); err == nil {
			t.Error("want error for reset of reference clock")
		}
	})
	t.Run("channel without direction", func(t *testing.T) {
		s := newSys()
		// AddEdge normalizes Chan for NoSync edges, so build the malformed
		// edge directly to exercise Validate.
		s.Automata[0].Edges = append(s.Automata[0].Edges, Edge{Src: 0, Dst: 1, Chan: 0, Dir: NoSync})
		if err := s.Validate(); err == nil {
			t.Error("want error for channel set with NoSync")
		}
	})
	t.Run("valid", func(t *testing.T) {
		s := newSys()
		s.Automata[0].AddEdge(Edge{Src: 0, Dst: 1, Chan: -1})
		if err := s.Validate(); err != nil {
			t.Errorf("valid system rejected: %v", err)
		}
	})
}

func TestMaxConstants(t *testing.T) {
	s := NewSystem("m")
	x := s.AddClock("x")
	y := s.AddClock("y")
	z := s.AddClock("z")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", Normal)
	l1 := a.AddLocation("l1", Normal)
	a.SetInvariant(l0, LE(x, 7))
	a.Edge(l0, l1).When(GE(y, 12)).ResetTo(x, 3).Done()
	max := s.MaxConstants()
	if max[0] != 0 {
		t.Errorf("max[ref] = %d, want 0", max[0])
	}
	if max[x] != 7 {
		t.Errorf("max[x] = %d, want 7", max[x])
	}
	if max[y] != 12 {
		t.Errorf("max[y] = %d, want 12", max[y])
	}
	if max[z] != -1 {
		t.Errorf("max[z] = %d, want -1 (never compared)", max[z])
	}
}

func TestClockAndChannelLookups(t *testing.T) {
	s, x, _ := buildTwoProc(t)
	if i, ok := s.ClockIndex("x"); !ok || i != x {
		t.Errorf("ClockIndex(x) = %d, %v", i, ok)
	}
	if _, ok := s.ClockIndex("nope"); ok {
		t.Error("ClockIndex of unknown clock succeeded")
	}
	if i, ok := s.ChannelIndex("go"); !ok || i != 0 {
		t.Errorf("ChannelIndex(go) = %d, %v", i, ok)
	}
	if s.NumChannels() != 1 || s.Channel(0).Name != "go" {
		t.Error("channel metadata wrong")
	}
	if got := s.ClockName(x); got != "x" {
		t.Errorf("ClockName = %q", got)
	}
	p := s.Automata[0]
	if i, ok := p.LocationIndex("p1"); !ok || i != 1 {
		t.Errorf("LocationIndex(p1) = %d, %v", i, ok)
	}
	if _, ok := p.LocationIndex("zz"); ok {
		t.Error("LocationIndex of unknown location succeeded")
	}
}

func TestDuplicateDeclsPanics(t *testing.T) {
	s := NewSystem("d")
	s.AddClock("x")
	s.AddChannel("c", false)
	for name, f := range map[string]func(){
		"clock":   func() { s.AddClock("x") },
		"channel": func() { s.AddChannel("c", false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPrettyPrint(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	var sb strings.Builder
	s.WriteSystem(&sb)
	out := sb.String()
	for _, want := range []string{
		"automaton P", "automaton Q",
		"loc p0 [init; inv x<=5]",
		"sync go!", "sync go?",
		"guard x>=2",
		"n := n + 1", "x := 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pretty print missing %q in:\n%s", want, out)
		}
	}
}

func TestEdgeBuilderNote(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	p := s.Automata[0]
	idx := p.Edge(1, 0).Note("guide: direct route").Done()
	if p.Edges[idx].Comment != "guide: direct route" {
		t.Error("Note not recorded")
	}
	var sb strings.Builder
	s.WriteAutomaton(&sb, p)
	if !strings.Contains(sb.String(), "// guide: direct route") {
		t.Error("comment not printed")
	}
}

func TestStats(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	st := s.Stats()
	if st.Automata != 2 || st.Locations != 4 || st.Edges != 2 || st.Clocks != 2 || st.Channels != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if !strings.Contains(st.String(), "2 automata") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

func TestEdgeBuilderGuardConjunction(t *testing.T) {
	s := NewSystem("g")
	s.AddClock("x")
	s.Table.DeclareVar("a", 1)
	s.Table.DeclareVar("b", 2)
	au := s.AddAutomaton("A")
	l0 := au.AddLocation("l0", Normal)
	l1 := au.AddLocation("l1", Normal)
	idx := au.Edge(l0, l1).Guard("a == 1").Guard("b == 2").Done()
	env := s.Table.NewEnv()
	if au.Edges[idx].IntGuard.Eval(env) != 1 {
		t.Error("conjoined guard should hold")
	}
	env[0] = 0
	if au.Edges[idx].IntGuard.Eval(env) != 0 {
		t.Error("conjoined guard should fail when first conjunct fails")
	}
}

func TestUnknownChannelPanics(t *testing.T) {
	s, _, _ := buildTwoProc(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown channel")
		}
	}()
	s.Automata[0].Edge(0, 1).Sync("nosuch", Send)
}

func TestLUBounds(t *testing.T) {
	s := NewSystem("lu")
	x := s.AddClock("x")
	y := s.AddClock("y")
	z := s.AddClock("z")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", Normal)
	l1 := a.AddLocation("l1", Normal)
	a.SetInvariant(l0, LE(x, 7))         // upper on x
	a.Edge(l0, l1).When(GE(x, 3)).Done() // lower on x
	a.Edge(l0, l1).When(LT(y, 9)).Done() // upper on y
	a.Edge(l1, l0).ResetTo(z, 4).Done()  // reset counts on both sides

	lower, upper, diag := s.LUBounds()
	if diag {
		t.Fatal("no diagonals declared")
	}
	if lower[x] != 3 || upper[x] != 7 {
		t.Errorf("x: L=%d U=%d, want 3/7", lower[x], upper[x])
	}
	if lower[y] != -1 || upper[y] != 9 {
		t.Errorf("y: L=%d U=%d, want -1/9", lower[y], upper[y])
	}
	if lower[z] != 4 || upper[z] != 4 {
		t.Errorf("z: L=%d U=%d, want 4/4", lower[z], upper[z])
	}
}

func TestLUBoundsDetectsDiagonals(t *testing.T) {
	s := NewSystem("diag")
	x := s.AddClock("x")
	y := s.AddClock("y")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", Normal)
	l1 := a.AddLocation("l1", Normal)
	a.Edge(l0, l1).When(Diff(x, y, dbm.LE(5))).Done()
	lower, upper, diag := s.LUBounds()
	if !diag {
		t.Fatal("diagonal guard not detected")
	}
	// Conservative: the constant feeds both sides of both clocks.
	if lower[x] != 5 || upper[x] != 5 || lower[y] != 5 || upper[y] != 5 {
		t.Errorf("diagonal bounds: L=%v U=%v", lower, upper)
	}
}

// TestTreeFormsMatchSource: GuardExpr and AssignExpr given the trees the
// parser builds for a guard and an update list yield the same edge as
// Guard and Assign given the source: equal structure, equal printed form.
func TestTreeFormsMatchSource(t *testing.T) {
	s := NewSystem("trees")
	s.Table.DeclareVar("n", 0)
	s.Table.DeclareArray("a", 3)
	s.Table.DefineConst("k", 2)
	p := s.AddAutomaton("P")
	l0 := p.AddLocation("l0", Normal)
	l1 := p.AddLocation("l1", Normal)
	p.SetInit(l0)

	n, _ := s.Table.LookupVar("n")
	base, size, _ := s.Table.LookupArray("a")
	at := func(i int32) expr.Index {
		return expr.Index{Base: base, Size: size, Idx: expr.Const{Val: i}, Name: "a"}
	}
	k := expr.Const{Val: 2, Name: "k"}

	src := p.Edge(l0, l1).
		Guard("a[0] == 0 && n < k").
		Guard("(n <= 3 ? 0-2 : 0) != n").
		Assign("a[k] := n + 1, n := 0").
		Assign("a[1] := (n == k ? 1 : 0)").
		Done()
	tree := p.Edge(l0, l1).
		GuardExpr(expr.Binary{Op: expr.OpAnd,
			L: expr.Binary{Op: expr.OpEq, L: at(0), R: expr.Const{Val: 0}},
			R: expr.Binary{Op: expr.OpLt, L: n, R: k}}).
		GuardExpr(expr.Binary{Op: expr.OpNe,
			L: expr.Cond{
				C: expr.Binary{Op: expr.OpLe, L: n, R: expr.Const{Val: 3}},
				T: expr.Binary{Op: expr.OpSub, L: expr.Const{Val: 0}, R: expr.Const{Val: 2}},
				F: expr.Const{Val: 0}},
			R: n}).
		AssignExpr(
			expr.Assign{LHS: expr.Index{Base: base, Size: size, Idx: k, Name: "a"},
				RHS: expr.Binary{Op: expr.OpAdd, L: n, R: expr.Const{Val: 1}}},
			expr.Assign{LHS: n, RHS: expr.Const{Val: 0}}).
		AssignExpr(expr.Assign{LHS: at(1), RHS: expr.Cond{
			C: expr.Binary{Op: expr.OpEq, L: n, R: k}, T: expr.Const{Val: 1}, F: expr.Const{Val: 0}}}).
		Done()

	es, et := p.Edges[src], p.Edges[tree]
	if !reflect.DeepEqual(es, et) {
		t.Errorf("tree-built edge %+v differs from parsed edge %+v", et, es)
	}
	if g, want := s.FormatGuard(et), s.FormatGuard(es); g != want {
		t.Errorf("guard prints %q, want %q", g, want)
	}
	if u, want := s.FormatUpdate(et), s.FormatUpdate(es); u != want {
		t.Errorf("update prints %q, want %q", u, want)
	}
	if want := "a[k] := n + 1, n := 0, a[1] := (n == k ? 1 : 0)"; s.FormatUpdate(et) != want {
		t.Errorf("update prints %q, want %q", s.FormatUpdate(et), want)
	}
}
