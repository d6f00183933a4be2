// Parallel-vs-sequential agreement tests, written as an external test
// package so the example models (including the batch plant, which itself
// imports mc) can be rebuilt here against the public API only.
package mc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/schedule"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// fischerModel builds Fischer's protocol for n processes; with the req
// invariant mutual exclusion holds, without it the violation is reachable.
func fischerModel(t testing.TB, n int, withInvariant bool) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("fischer")
	s.Table.DeclareVar("id", 0)
	const k = 2
	var cs []mc.LocRequirement
	for pid := 1; pid <= n; pid++ {
		x := s.AddClock(fmt.Sprintf("x%d", pid))
		a := s.AddAutomaton(fmt.Sprintf("P%d", pid))
		idle := a.AddLocation("idle", ta.Normal)
		req := a.AddLocation("req", ta.Normal)
		wait := a.AddLocation("wait", ta.Normal)
		crit := a.AddLocation("cs", ta.Normal)
		if withInvariant {
			a.SetInvariant(req, ta.LE(x, k))
		}
		a.SetInit(idle)
		a.Edge(idle, req).Guard("id == 0").Reset(x).Done()
		a.Edge(req, wait).Assign(fmt.Sprintf("id := %d", pid)).Reset(x).Done()
		a.Edge(wait, crit).When(ta.GT(x, k)).Guard(fmt.Sprintf("id == %d", pid)).Done()
		a.Edge(wait, req).Guard("id == 0").Reset(x).Done()
		a.Edge(crit, idle).Assign("id := 0").Done()
		cs = append(cs, mc.LocRequirement{Automaton: pid - 1, Location: crit})
	}
	return s, mc.Goal{Desc: "mutex violation", Locs: cs[:2]}
}

// traingateModel parses the train-gate crossing from examples/traingate;
// closeBy 3 is safe, 7 lets the train in under an open gate.
func traingateModel(t testing.TB, closeBy int) (*ta.System, mc.Goal) {
	t.Helper()
	src := fmt.Sprintf(`
system traingate

int gateup 1
clock xt xg
chan appr leave

automaton Train {
    init loc far
    loc near { inv xt <= 10 }
    loc crossing { inv xt <= 15 }
    far -> near { guard xt >= 2; sync appr!; do xt := 0 }
    near -> crossing { guard xt >= 5 }
    crossing -> far { guard xt >= 12; sync leave!; do xt := 0 }
}

automaton Gate {
    init loc up
    loc lowering { inv xg <= %d }
    loc down
    loc raising { inv xg <= 2 }
    up -> lowering { sync appr?; do xg := 0 }
    lowering -> down { guard xg >= %d; do gateup := 0 }
    down -> raising { sync leave?; do xg := 0 }
    raising -> up { guard xg >= 1; do gateup := 1 }
}

query exists Train.crossing && gateup == 1
`, closeBy, closeBy)
	m, err := tadsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m.Sys, m.Query
}

// jobshopModel builds the three-job job-shop instance from
// examples/jobshop; "all jobs done" is reachable.
func jobshopModel(t testing.TB) (*ta.System, mc.Goal) {
	t.Helper()
	type task struct {
		machine  int
		duration int32
	}
	jobs := [][]task{
		{{0, 3}, {1, 2}, {2, 2}},
		{{0, 2}, {2, 1}, {1, 4}},
		{{1, 4}, {2, 3}},
	}
	sys := ta.NewSystem("jobshop")
	sys.AddClock("gt")
	sys.Table.DeclareArray("mfree", 3, 1, 1, 1)
	sys.Table.DeclareVar("done", 0)
	for j, tasks := range jobs {
		x := sys.AddClock(fmt.Sprintf("x%d", j))
		a := sys.AddAutomaton(fmt.Sprintf("Job%d", j))
		wait := make([]int, len(tasks))
		busy := make([]int, len(tasks))
		for k, tk := range tasks {
			wait[k] = a.AddLocation(fmt.Sprintf("wait%d", k), ta.Normal)
			busy[k] = a.AddLocation(fmt.Sprintf("on%d_m%d", k, tk.machine), ta.Normal)
			a.SetInvariant(busy[k], ta.LE(x, tk.duration))
		}
		fin := a.AddLocation("done", ta.Normal)
		a.SetInit(wait[0])
		for k, tk := range tasks {
			a.Edge(wait[k], busy[k]).
				Guard(fmt.Sprintf("mfree[%d] == 1", tk.machine)).
				Assign(fmt.Sprintf("mfree[%d] := 0", tk.machine)).
				Reset(x).
				Done()
			next := fin
			if k+1 < len(tasks) {
				next = wait[k+1]
			}
			release := a.Edge(busy[k], next).
				When(ta.EQ(x, tk.duration)...).
				Assign(fmt.Sprintf("mfree[%d] := 1", tk.machine))
			if next == fin {
				release.Assign("done := done + 1")
			}
			release.Done()
		}
	}
	return sys, mc.Goal{Desc: "all jobs finished", Expr: expr.MustParse("done == 3", sys.Table)}
}

// checkTrace asserts that a found trace passes the witness-trace contract
// and concretizes on the half-unit grid.
func checkTrace(t *testing.T, sys *ta.System, goal mc.Goal, res mc.Result) {
	t.Helper()
	if !res.Found {
		return
	}
	if err := mc.CheckTrace(sys, goal, res.Trace); err != nil {
		t.Fatalf("trace fails the contract: %v", err)
	}
	if _, err := mc.Concretize(sys, res.Trace); err != nil {
		t.Fatalf("trace does not concretize on the half-unit grid: %v", err)
	}
}

// TestParallelMatchesSequential checks that parallel and sequential search
// agree on Found for every example model, at several worker counts, and
// that every parallel-found trace is genuine.
func TestParallelMatchesSequential(t *testing.T) {
	models := []struct {
		name  string
		build func(testing.TB) (*ta.System, mc.Goal)
	}{
		{"fischer-safe", func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 3, true) }},
		{"fischer-broken", func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 3, false) }},
		{"traingate-safe", func(tb testing.TB) (*ta.System, mc.Goal) { return traingateModel(tb, 3) }},
		{"traingate-unsafe", func(tb testing.TB) (*ta.System, mc.Goal) { return traingateModel(tb, 7) }},
		{"jobshop", func(tb testing.TB) (*ta.System, mc.Goal) { return jobshopModel(tb) }},
	}
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, m := range models {
		for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
			t.Run(fmt.Sprintf("%s/%v", m.name, order), func(t *testing.T) {
				sys, goal := m.build(t)
				seq, err := mc.Explore(sys, goal, mc.DefaultOptions(order))
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					sys, goal := m.build(t)
					opts := mc.DefaultOptions(order)
					opts.Workers = w
					par, err := mc.Explore(sys, goal, opts)
					if err != nil {
						t.Fatal(err)
					}
					if par.Found != seq.Found {
						t.Fatalf("workers=%d: found=%v, sequential found=%v", w, par.Found, seq.Found)
					}
					if par.Abort != mc.AbortNone {
						t.Fatalf("workers=%d: unexpected abort %q", w, par.Abort)
					}
					checkTrace(t, sys, goal, par)
				}
			})
		}
	}
}

// TestParallelPlantSchedules checks the batch plant at each guide level:
// parallel search must agree with sequential on feasibility, and every
// parallel-found trace must concretize and project to a valid schedule.
func TestParallelPlantSchedules(t *testing.T) {
	cases := []struct {
		guides  plant.GuideLevel
		batches int
		order   mc.SearchOrder
	}{
		{plant.AllGuides, 1, mc.DFS},
		{plant.AllGuides, 2, mc.DFS},
		{plant.AllGuides, 2, mc.BFS},
		{plant.SomeGuides, 1, mc.DFS},
		{plant.SomeGuides, 2, mc.DFS},
		{plant.NoGuides, 1, mc.BFS},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%vGuides/%v/batches=%d", c.guides, c.order, c.batches), func(t *testing.T) {
			if testing.Short() && c.guides == plant.NoGuides {
				t.Skip("unguided search is slow under -race in short mode")
			}
			run := func(workers int) mc.Result {
				p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(c.batches), Guides: c.guides})
				if err != nil {
					t.Fatal(err)
				}
				opts := mc.DefaultOptions(c.order)
				opts.Observer = &mc.FuncObserver{Priority: p.Priority}
				opts.Workers = workers
				res, err := mc.Explore(p.Sys, p.Goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(1)
			par := run(4)
			if par.Found != seq.Found {
				t.Fatalf("parallel found=%v, sequential found=%v", par.Found, seq.Found)
			}
			if !par.Found {
				t.Fatal("plant schedule not found")
			}
			// The parallel witness must concretize and project to a valid
			// schedule, like the sequential one.
			p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(c.batches), Guides: c.guides})
			if err != nil {
				t.Fatal(err)
			}
			steps, err := mc.Concretize(p.Sys, par.Trace)
			if err != nil {
				t.Fatalf("parallel trace does not concretize: %v", err)
			}
			sched := schedule.FromTrace(p, steps)
			if err := sched.Validate(); err != nil {
				t.Fatalf("parallel schedule invalid: %v", err)
			}
		})
	}
}

// TestParallelStress drives the work-stealing search through many
// perturbed exploration orders (a seeded random Priority heuristic cannot
// change answers, only effort and scheduling interleavings) and asserts
// agreement with the sequential answer every time. Run under -race this
// doubles as the data-race stress for the sharded store and deques.
func TestParallelStress(t *testing.T) {
	iterations := 24
	if testing.Short() {
		iterations = 8
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prio := func(tr mc.Transition) int {
			// Deterministic per-transition pseudo-priority from the seed.
			return int(fnvMix(uint64(seed)<<32 | uint64(tr.A1)<<16 | uint64(tr.E1)))
		}
		broken := seed%2 == 0
		order := mc.BFS
		if seed%3 == 0 {
			order = mc.DFS
		}
		sys, goal := fischerModel(t, 3, !broken)
		seqOpts := mc.DefaultOptions(order)
		seqOpts.Observer = &mc.FuncObserver{Priority: prio}
		seq, err := mc.Explore(sys, goal, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		sys, goal = fischerModel(t, 3, !broken)
		parOpts := mc.DefaultOptions(order)
		parOpts.Observer = &mc.FuncObserver{Priority: prio}
		parOpts.Workers = 2 + rng.Intn(7)
		par, err := mc.Explore(sys, goal, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Found != seq.Found {
			t.Fatalf("seed %d (workers=%d, %v): parallel found=%v, sequential found=%v",
				seed, parOpts.Workers, order, par.Found, seq.Found)
		}
		checkTrace(t, sys, goal, par)
	}
}

// fnvMix is a cheap avalanche mix for the stress test's pseudo-priorities.
func fnvMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & 0x7fffffff
}

// TestParallelAbortLimits checks that the cutoffs work in parallel mode.
func TestParallelAbortLimits(t *testing.T) {
	build := func() (*ta.System, mc.Goal) {
		s := ta.NewSystem("counter")
		s.AddClock("x")
		s.Table.DeclareVar("n", 0)
		a := s.AddAutomaton("A")
		l0 := a.AddLocation("l0", ta.Normal)
		a.SetInit(l0)
		a.Edge(l0, l0).Assign("n := n + 1").Done()
		return s, mc.Goal{Expr: expr.MustParse("n < 0", s.Table)}
	}
	t.Run("states", func(t *testing.T) {
		s, goal := build()
		opts := mc.DefaultOptions(mc.BFS)
		opts.Workers = 4
		opts.MaxStates = 500
		res, err := mc.Explore(s, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Abort != mc.AbortStates {
			t.Errorf("found=%v abort=%q", res.Found, res.Abort)
		}
	})
	t.Run("memory", func(t *testing.T) {
		s, goal := build()
		opts := mc.DefaultOptions(mc.DFS)
		opts.Workers = 4
		opts.MaxMemory = 64 << 10
		res, err := mc.Explore(s, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Abort != mc.AbortMemory {
			t.Errorf("found=%v abort=%q", res.Found, res.Abort)
		}
	})
}

// TestParallelDeadlockQuery checks deadlock detection under Workers > 1.
func TestParallelDeadlockQuery(t *testing.T) {
	s := ta.NewSystem("dl")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	a.SetInvariant(l1, ta.LE(x, 5))
	a.SetInit(l0)
	a.Edge(l0, l1).Reset(x).Done()
	a.Edge(l0, l0).When(ta.GE(x, 1)).Reset(x).Done()
	opts := mc.DefaultOptions(mc.BFS)
	opts.Workers = 4
	res, err := mc.Explore(s, mc.Goal{Desc: "E<> deadlock", Deadlock: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("deadlock in l1 not found in parallel mode")
	}
	if len(res.Trace) == 0 {
		t.Error("deadlock trace empty")
	}
}

// TestParallelFallbackOrders checks that BSH and BestTime ignore Workers
// and still return the sequential answer.
func TestParallelFallbackOrders(t *testing.T) {
	sys, goal := jobshopModel(t)
	gt := 1 // first declared clock after the reference
	opts := mc.DefaultOptions(mc.BestTime)
	opts.TimeClock = gt
	opts.TimeHorizon = 64
	opts.Workers = 8
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("BestTime with Workers set should still find the schedule")
	}
	sys, goal = fischerModel(t, 3, false)
	bsh := mc.DefaultOptions(mc.BSH)
	bsh.Workers = 8
	res, err = mc.Explore(sys, goal, bsh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		checkTrace(t, sys, goal, res)
	}
}

// TestParallelStatsObservability checks the Profile-gated parallel stats.
func TestParallelStatsObservability(t *testing.T) {
	sys, goal := fischerModel(t, 4, true)
	opts := mc.DefaultOptions(mc.BFS)
	opts.Workers = 4
	opts.Profile = true
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.StatesExplored == 0 || st.StatesStored == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if len(st.ShardOccupancy) == 0 {
		t.Error("ShardOccupancy not populated under Profile")
	}
	total := 0
	for _, c := range st.ShardOccupancy {
		total += c
	}
	if total != st.DiscreteStates {
		t.Errorf("shard occupancy sums to %d, want DiscreteStates=%d", total, st.DiscreteStates)
	}
	if len(st.WorkerExplored) != 4 {
		t.Errorf("WorkerExplored has %d entries, want 4", len(st.WorkerExplored))
	}
	sum := 0
	for _, c := range st.WorkerExplored {
		sum += c
	}
	if sum != st.StatesExplored {
		t.Errorf("worker explored sums to %d, want %d", sum, st.StatesExplored)
	}
}
