// Warm-start tests: seeding a search from another (or the same) model's
// kept-final checkpoint must only ever help — an unusable seed degrades
// to a cold search, a usable one skips re-exploration, and a witness that
// crosses seeded state is either replay-validated on the current model or
// the run fails loudly with ErrWarmStart. Model pairs are built so the
// interesting paths (instant witness, full drop, failed replay) trigger
// deterministically rather than by timing.
package mc_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/snapshot"
	"guidedta/internal/ta"
)

// fischerKModel is fischerModel with the timing constant k exposed: two
// instances with different k share automata, locations, and variable
// layout — exactly the "nearby model" a warm start is for — while hashing
// to different models. Without the req invariant the mutex violation is
// reachable for every k.
func fischerKModel(t testing.TB, n, k int) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("fischer")
	s.Table.DeclareVar("id", 0)
	var cs []mc.LocRequirement
	for pid := 1; pid <= n; pid++ {
		x := s.AddClock(fmt.Sprintf("x%d", pid))
		a := s.AddAutomaton(fmt.Sprintf("P%d", pid))
		idle := a.AddLocation("idle", ta.Normal)
		req := a.AddLocation("req", ta.Normal)
		wait := a.AddLocation("wait", ta.Normal)
		crit := a.AddLocation("cs", ta.Normal)
		a.SetInit(idle)
		a.Edge(idle, req).Guard("id == 0").Reset(x).Done()
		a.Edge(req, wait).Assign(fmt.Sprintf("id := %d", pid)).Reset(x).Done()
		a.Edge(wait, crit).When(ta.GT(x, int32(k))).Guard(fmt.Sprintf("id == %d", pid)).Done()
		a.Edge(wait, req).Guard("id == 0").Reset(x).Done()
		a.Edge(crit, idle).Assign("id := 0").Done()
		cs = append(cs, mc.LocRequirement{Automaton: pid - 1, Location: crit})
	}
	return s, mc.Goal{Desc: "mutex violation", Locs: cs[:2]}
}

// keepFinalCheckpoint completes a search on sys with KeepFinal set and
// returns the kept checkpoint path plus the run's result.
func keepFinalCheckpoint(t *testing.T, sys *ta.System, goal mc.Goal, opts mc.Options) (string, mc.Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "final.ckpt")
	opts.Checkpoint = mc.CheckpointOptions{Path: path, KeepFinal: true, Meta: "test"}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != mc.AbortNone {
		t.Fatalf("seeding run aborted %q, want clean completion", res.Abort)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("KeepFinal left no checkpoint: %v", err)
	}
	return path, res
}

// keptPathOnly asserts that the kept-final checkpoint at path holds at
// most len(trace)+1 store entries: an instant witness keeps only its
// replayed path, whatever the seed held.
func keptPathOnly(t *testing.T, path string, trace []mc.Transition) {
	t.Helper()
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Store) > len(trace)+1 {
		t.Fatalf("instant run kept %d store entries, want at most %d (its path)", len(cp.Store), len(trace)+1)
	}
}

// TestWarmStartSameModelInstantWitness: re-running the identical query
// warm-started from its own final checkpoint must find the goal by
// replaying the seed's goal state, exploring nothing and seeding nothing:
// the witness is the seed run's own trace, it still replays and
// concretizes, and the run's kept-final checkpoint holds only its path.
func TestWarmStartSameModelInstantWitness(t *testing.T) {
	sys, goal := fischerKModel(t, 4, 2)
	path, ref := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.DFS))
	if !ref.Found {
		t.Fatal("broken fischer reported safe")
	}

	hdr, err := snapshot.ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Final || hdr.Meta != "test" {
		t.Fatalf("kept checkpoint header = %+v, want Final with Meta \"test\"", hdr)
	}

	sys, goal = fischerKModel(t, 4, 2)
	opts := mc.DefaultOptions(mc.DFS)
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	kept, res := keepFinalCheckpoint(t, sys, goal, opts)
	if !res.WarmStarted || !res.Found {
		t.Fatalf("warm run: WarmStarted=%v Found=%v, want both", res.WarmStarted, res.Found)
	}
	if !slices.Equal(res.Trace, ref.Trace) {
		t.Fatalf("warm trace %v differs from the seed run's %v", res.Trace, ref.Trace)
	}
	if res.Stats.StatesExplored != 0 {
		t.Fatalf("instant witness still explored %d states", res.Stats.StatesExplored)
	}
	if res.Stats.WarmReplays != 1 || res.Stats.WarmSeeded != 0 || res.Stats.WarmDropped != 0 {
		t.Fatalf("warm run replayed %d, seeded %d, dropped %d; want 1, 0, 0",
			res.Stats.WarmReplays, res.Stats.WarmSeeded, res.Stats.WarmDropped)
	}
	keptPathOnly(t, kept, res.Trace)
	checkTrace(t, sys, goal, res)
}

// TestWarmStartNearbyModelFewerStates is the re-synthesis scenario: the
// constant k drifts, the warm search replays the old run's witness on the
// new model, and the (replay-validated) answer arrives without exploring
// a state, where a cold search of the new model explores many; the kept
// snapshot holds only the replayed path.
func TestWarmStartNearbyModelFewerStates(t *testing.T) {
	sys, goal := fischerKModel(t, 4, 2)
	path, _ := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.DFS))

	coldSys, coldGoal := fischerKModel(t, 4, 3)
	cold, err := mc.Explore(coldSys, coldGoal, mc.DefaultOptions(mc.DFS))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Found {
		t.Fatal("drifted fischer reported safe")
	}

	warmSys, warmGoal := fischerKModel(t, 4, 3)
	opts := mc.DefaultOptions(mc.DFS)
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	kept, warm := keepFinalCheckpoint(t, warmSys, warmGoal, opts)
	if !warm.WarmStarted || !warm.Found {
		t.Fatalf("warm run: WarmStarted=%v Found=%v, want both", warm.WarmStarted, warm.Found)
	}
	if warm.Stats.StatesExplored != 0 || cold.Stats.StatesExplored == 0 {
		t.Fatalf("warm explored %d states, cold %d — no reuse",
			warm.Stats.StatesExplored, cold.Stats.StatesExplored)
	}
	keptPathOnly(t, kept, warm.Trace)
	checkTrace(t, warmSys, warmGoal, warm)
}

// TestWarmStartStructureMismatchDropsAll: a seed from a differently shaped
// network (more automata, wider env) must be dropped wholesale and the
// search must behave exactly like a cold run.
func TestWarmStartStructureMismatchDropsAll(t *testing.T) {
	seedSys, seedGoal := fischerKModel(t, 5, 2)
	path, _ := keepFinalCheckpoint(t, seedSys, seedGoal, mc.DefaultOptions(mc.DFS))

	sys, goal := fischerKModel(t, 4, 2)
	cold, err := mc.Explore(sys, goal, mc.DefaultOptions(mc.DFS))
	if err != nil {
		t.Fatal(err)
	}

	sys, goal = fischerKModel(t, 4, 2)
	opts := mc.DefaultOptions(mc.DFS)
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	warm, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmSeeded != 0 {
		t.Fatalf("seeded %d states across a structural mismatch", warm.Stats.WarmSeeded)
	}
	if warm.Stats.WarmDropped == 0 {
		t.Fatal("mismatched seed reported no drops")
	}
	if warm.WarmStarted {
		t.Fatal("a seed that left no state in the store reported WarmStarted")
	}
	if warm.Stats.WarmDroppedShape != warm.Stats.WarmDropped || warm.Stats.WarmReplays != 0 {
		t.Fatalf("dropped %d, of them %d for shape, replayed %d; want every drop a shape drop and no replay",
			warm.Stats.WarmDropped, warm.Stats.WarmDroppedShape, warm.Stats.WarmReplays)
	}
	if warm.Found != cold.Found || warm.Stats.StatesExplored != cold.Stats.StatesExplored {
		t.Fatalf("fully dropped warm run diverged from cold: found=%v/%v explored=%d/%d",
			warm.Found, cold.Found, warm.Stats.StatesExplored, cold.Stats.StatesExplored)
	}
	checkTrace(t, sys, goal, warm)
}

// guardedModel builds l0 -> l1 -> l2 where the first edge needs x >= 5
// and l1 carries the invariant x <= inv; l3 is unreachable, so every
// search is exhaustive and a warm run always seeds.
func guardedModel(t testing.TB, inv int32) (*ta.System, mc.Goal, []int) {
	t.Helper()
	s := ta.NewSystem("guarded")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	l3 := a.AddLocation("l3", ta.Normal)
	a.SetInit(l0)
	a.SetInvariant(l1, ta.LE(x, inv))
	a.Edge(l0, l1).When(ta.GE(x, 5)).Done()
	a.Edge(l1, l2).Done()
	return s, mc.Goal{Desc: "reach l3", Locs: []mc.LocRequirement{{Automaton: 0, Location: l3}}}, []int{l0, l1, l2}
}

// TestWarmStartDropReasons: each dropped seed state is counted under its
// reason. The seed (deadline 10) holds l0, l1 (5 <= x <= 10) and l2; the
// warm model's deadline 3 empties l1, and l2's depth is corrupted in the
// file, which breaks its ancestor chain. l0 is seeded.
func TestWarmStartDropReasons(t *testing.T) {
	sys, goal, locs := guardedModel(t, 10)
	path, _ := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.BFS))
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp.Nodes {
		if sn := &cp.Nodes[i]; sn.HasState && int(sn.Locs[0]) == locs[2] {
			sn.Depth += 5
		}
	}
	if err := snapshot.Write(path, cp); err != nil {
		t.Fatal(err)
	}

	sys, goal, _ = guardedModel(t, 3)
	opts := mc.DefaultOptions(mc.BFS)
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.WarmSeeded != 1 || st.WarmDroppedShape != 0 || st.WarmDroppedChain != 1 || st.WarmDroppedEmptied != 1 || st.WarmDropped != 2 {
		t.Fatalf("seeded %d, dropped %d (shape %d, chain %d, emptied %d); want 1, 2 (0, 1, 1)",
			st.WarmSeeded, st.WarmDropped, st.WarmDroppedShape, st.WarmDroppedChain, st.WarmDroppedEmptied)
	}
	if st.WarmReplays != 0 || !res.WarmStarted || res.Found {
		t.Fatalf("replays %d, WarmStarted %v, Found %v; want 0, true, false", st.WarmReplays, res.WarmStarted, res.Found)
	}
}

// TestWarmStartMissingSeedRunsCold: warm starting is opportunistic — a
// missing seed file is not an error, just a cold search.
func TestWarmStartMissingSeedRunsCold(t *testing.T) {
	sys, goal := fischerKModel(t, 4, 2)
	cold, err := mc.Explore(sys, goal, mc.DefaultOptions(mc.DFS))
	if err != nil {
		t.Fatal(err)
	}

	sys, goal = fischerKModel(t, 4, 2)
	opts := mc.DefaultOptions(mc.DFS)
	opts.WarmStart = mc.WarmStartOptions{Path: filepath.Join(t.TempDir(), "absent.ckpt")}
	warm, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStarted {
		t.Fatal("run claims a warm start from a nonexistent file")
	}
	if warm.Found != cold.Found || warm.Stats.StatesExplored != cold.Stats.StatesExplored {
		t.Fatal("missing-seed run diverged from cold")
	}
}

// seqModel builds a three-location chain L0 -> L1 -> L2 where the first
// edge assigns v := set and the second is guarded on v == 1, so a seed
// from set=1 carries states (v=1 at L1) the set=2 model cannot reach.
func seqModel(t testing.TB, set int) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("seq")
	s.Table.DeclareVar("v", 0)
	s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).Assign(fmt.Sprintf("v := %d", set)).Done()
	a.Edge(l1, l2).Guard("v == 1").Done()
	return s, mc.Goal{Desc: "reach l2", Locs: []mc.LocRequirement{{Automaton: 0, Location: l2}}}
}

// TestWarmStartInvalidSeededWitnessErrs constructs the one warm-start
// failure that must be loud: the search expands a seeded frontier state
// whose stale env (v=1, unreachable on the new model) satisfies the guard
// into the goal, so the found witness taints through seeded state — and
// its replay on the new model fails. The run must return ErrWarmStart,
// never the false witness.
func TestWarmStartInvalidSeededWitnessErrs(t *testing.T) {
	// Interrupt the set=1 model after one explored state: the checkpoint
	// holds {L0, L1(v=1)} with L1 still on the frontier.
	seedSys, seedGoal := seqModel(t, 1)
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	opts := mc.DefaultOptions(mc.BFS)
	opts.MaxStates = 1
	opts.Checkpoint = mc.CheckpointOptions{Path: path}
	res, err := mc.Explore(seedSys, seedGoal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != mc.AbortStates || res.Found {
		t.Fatalf("seeding run: abort=%q found=%v, want clean state-limit interrupt", res.Abort, res.Found)
	}

	// The set=2 model can never satisfy v == 1; cold search proves it.
	coldSys, coldGoal := seqModel(t, 2)
	cold, err := mc.Explore(coldSys, coldGoal, mc.DefaultOptions(mc.BFS))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Found {
		t.Fatal("set=2 model reached l2 cold; test model broken")
	}

	warmSys, warmGoal := seqModel(t, 2)
	wopts := mc.DefaultOptions(mc.BFS)
	wopts.WarmStart = mc.WarmStartOptions{Path: path}
	_, err = mc.Explore(warmSys, warmGoal, wopts)
	if !errors.Is(err, mc.ErrWarmStart) {
		t.Fatalf("got %v, want ErrWarmStart", err)
	}
}

// deadlineModel builds l0 -> l1 -> l2 where l1 carries the invariant
// x <= inv and the outgoing edge is guarded x > 5: with inv < 5 the guard
// can never fire before the invariant blocks delay, so l1 is a deadlock;
// with inv > 5 (a relaxed deadline) l1 always has a successor.
func deadlineModel(t testing.TB, inv int32) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("deadline")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	l2 := a.AddLocation("l2", ta.Normal)
	a.SetInit(l0)
	a.SetInvariant(l1, ta.LE(x, inv))
	a.Edge(l0, l1).Done()
	a.Edge(l1, l2).When(ta.GT(x, 5)).Done()
	return s, mc.Goal{Desc: "deadlock at l1", Deadlock: true,
		Locs: []mc.LocRequirement{{Automaton: 0, Location: l1}}}
}

// TestWarmStartDeadlockRelaxedModelErrs guards against the false-positive
// deadlock witness: the seed run (deadline 3) is interrupted with l1 still
// on the frontier, so the warm run of the relaxed model (deadline 10)
// pops the seeded l1 whose inherited zone x<=3 cannot fire the x>5 edge —
// a deadend on the seeded zone, but NOT on this model, whose replayed
// zone x<=10 has a successor. The run must fail with ErrWarmStart (so a
// server falls back cold), never report the deadlock the relaxed model
// does not have.
func TestWarmStartDeadlockRelaxedModelErrs(t *testing.T) {
	seedSys, seedGoal := deadlineModel(t, 3)
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	opts := mc.DefaultOptions(mc.BFS)
	opts.MaxStates = 1 // interrupt after expanding l0: l1 stays frontier
	opts.Checkpoint = mc.CheckpointOptions{Path: path}
	res, err := mc.Explore(seedSys, seedGoal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != mc.AbortStates || res.Found {
		t.Fatalf("seeding run: abort=%q found=%v, want clean state-limit interrupt", res.Abort, res.Found)
	}

	// The relaxed model has no deadlock at l1; cold search proves it.
	coldSys, coldGoal := deadlineModel(t, 10)
	cold, err := mc.Explore(coldSys, coldGoal, mc.DefaultOptions(mc.BFS))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Found {
		t.Fatal("relaxed model deadlocks at l1 cold; test model broken")
	}

	warmSys, warmGoal := deadlineModel(t, 10)
	wopts := mc.DefaultOptions(mc.BFS)
	wopts.WarmStart = mc.WarmStartOptions{Path: path}
	warm, err := mc.Explore(warmSys, warmGoal, wopts)
	if err == nil && warm.Found {
		t.Fatalf("warm run reported a deadlock the relaxed model does not have (trace %v)", warm.Trace)
	}
	if !errors.Is(err, mc.ErrWarmStart) {
		t.Fatalf("got %v, want ErrWarmStart", err)
	}

	// The unrelaxed model still finds its genuine deadlock through the
	// same warm seed: the replayed zone equals the seeded one, and the
	// successor recheck confirms rather than refutes it.
	sameSys, sameGoal := deadlineModel(t, 3)
	sopts := mc.DefaultOptions(mc.BFS)
	sopts.WarmStart = mc.WarmStartOptions{Path: path}
	same, err := mc.Explore(sameSys, sameGoal, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if !same.WarmStarted || !same.Found {
		t.Fatalf("same-model warm deadlock run: WarmStarted=%v Found=%v, want both", same.WarmStarted, same.Found)
	}
}

// TestWarmStartRejections: option combinations that cannot be honored must
// fail validation, and warm starting must not leak into the canonical
// options JSON (it would split cache identities by a process-local path).
func TestWarmStartRejections(t *testing.T) {
	t.Run("bsh", func(t *testing.T) {
		sys, goal := fischerKModel(t, 3, 2)
		opts := mc.DefaultOptions(mc.BSH)
		opts.WarmStart = mc.WarmStartOptions{Path: "whatever.ckpt"}
		if _, err := mc.Explore(sys, goal, opts); err == nil {
			t.Fatal("BSH warm start validated; the bit table cannot seed states")
		}
	})
	t.Run("canonical-json-unaffected", func(t *testing.T) {
		base := mc.DefaultOptions(mc.DFS)
		plain, err := base.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		base.WarmStart = mc.WarmStartOptions{Path: "/some/seed.ckpt"}
		warm, err := base.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != string(warm) {
			t.Fatalf("WarmStart changed canonical options:\n%s\n%s", plain, warm)
		}
		if strings.Contains(string(warm), "seed.ckpt") {
			t.Fatal("seed path serialized into canonical options")
		}
	})
	t.Run("final-refuses-exact-resume", func(t *testing.T) {
		sys, goal := fischerKModel(t, 4, 2)
		path, _ := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.DFS))
		sys, goal = fischerKModel(t, 4, 2)
		opts := mc.DefaultOptions(mc.DFS)
		opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
		if _, err := mc.Explore(sys, goal, opts); !errors.Is(err, mc.ErrResume) {
			t.Fatalf("resuming a final checkpoint: got %v, want ErrResume", err)
		}
	})
}

// TestWarmStartParallel: a warm-started search with a worker count runs
// in parallel through the same seeding and replay validation as the
// sequential one, and still benefits from the seed.
func TestWarmStartParallel(t *testing.T) {
	sys, goal := fischerKModel(t, 4, 2)
	path, _ := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.DFS))

	sys, goal = fischerKModel(t, 4, 3)
	opts := mc.DefaultOptions(mc.DFS)
	opts.Workers = 4
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted || !res.Found {
		t.Fatalf("warm run with workers: WarmStarted=%v Found=%v", res.WarmStarted, res.Found)
	}
	checkTrace(t, sys, goal, res)
}

// stateLimitSeed runs sys until maxStates states are explored and
// returns the abort-time checkpoint: a seed whose frontier is non-empty,
// so a warm start from it still has exploring to do.
func stateLimitSeed(t *testing.T, sys *ta.System, goal mc.Goal, opts mc.Options, maxStates int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	opts.MaxStates = maxStates
	opts.Checkpoint = mc.CheckpointOptions{Path: path}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != mc.AbortStates || res.Found {
		t.Fatalf("seeding run: abort=%q found=%v, want clean state-limit interrupt", res.Abort, res.Found)
	}
	return path
}

// TestWarmStartParallelSpreadsWork: the seed's frontier is scattered over
// the worker deques, so under Profile at least two workers report
// explored states.
func TestWarmStartParallelSpreadsWork(t *testing.T) {
	sys, goal := fischerModel(t, 5, true)
	path := stateLimitSeed(t, sys, goal, mc.DefaultOptions(mc.BFS), 1000)

	sys, goal = fischerModel(t, 5, true)
	opts := mc.DefaultOptions(mc.BFS)
	opts.Workers = 4
	opts.Profile = true
	opts.WarmStart = mc.WarmStartOptions{Path: path}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted {
		t.Fatal("warm run did not report WarmStarted")
	}
	busy := 0
	for _, n := range res.Stats.WorkerExplored {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("WorkerExplored = %v, want at least 2 workers exploring", res.Stats.WorkerExplored)
	}
}

// TestWarmStartParallelNegative: an exhaustive parallel warm run of a safe
// model reports WarmStarted with its (advisory) negative, and agrees with
// a cold parallel run — verdict, and the final antichain: the seed holds
// only this model's states, every one expanded or on its frontier.
func TestWarmStartParallelNegative(t *testing.T) {
	for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
		sys, goal := fischerModel(t, 5, true)
		path := stateLimitSeed(t, sys, goal, mc.DefaultOptions(order), 1500)

		sys, goal = fischerModel(t, 5, true)
		opts := mc.DefaultOptions(order)
		opts.Workers = 4
		cold, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		sys, goal = fischerModel(t, 5, true)
		opts.WarmStart = mc.WarmStartOptions{Path: path}
		warm, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted || warm.Stats.WarmSeeded == 0 {
			t.Fatalf("%v: WarmStarted=%v WarmSeeded=%d, want a seeded run", order, warm.WarmStarted, warm.Stats.WarmSeeded)
		}
		if warm.Found || cold.Found {
			t.Fatalf("%v: safe fischer found: warm %v, cold %v", order, warm.Found, cold.Found)
		}
		if warm.Stats.StatesStored != cold.Stats.StatesStored || warm.Stats.DiscreteStates != cold.Stats.DiscreteStates {
			t.Fatalf("%v: warm stored %d (%d discrete), cold %d (%d)", order,
				warm.Stats.StatesStored, warm.Stats.DiscreteStates, cold.Stats.StatesStored, cold.Stats.DiscreteStates)
		}
	}
}

// TestWarmStartParallelReplayFailureErrs runs the two seeded-prefix
// failures of the sequential tests — a stale-integer witness and a
// deadlock the relaxed model does not have — with four workers: the run
// must fail with ErrWarmStart, never return the trace.
func TestWarmStartParallelReplayFailureErrs(t *testing.T) {
	cases := []struct {
		name       string
		seed, warm func(testing.TB) (*ta.System, mc.Goal)
	}{
		{"stale-integer",
			func(tb testing.TB) (*ta.System, mc.Goal) { return seqModel(tb, 1) },
			func(tb testing.TB) (*ta.System, mc.Goal) { return seqModel(tb, 2) }},
		{"relaxed-deadlock",
			func(tb testing.TB) (*ta.System, mc.Goal) { return deadlineModel(tb, 3) },
			func(tb testing.TB) (*ta.System, mc.Goal) { return deadlineModel(tb, 10) }},
	}
	for _, tc := range cases {
		for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
			sys, goal := tc.seed(t)
			path := stateLimitSeed(t, sys, goal, mc.DefaultOptions(mc.BFS), 1)
			sys, goal = tc.warm(t)
			opts := mc.DefaultOptions(order)
			opts.Workers = 4
			opts.WarmStart = mc.WarmStartOptions{Path: path}
			res, err := mc.Explore(sys, goal, opts)
			if !errors.Is(err, mc.ErrWarmStart) {
				t.Fatalf("%s %v: got err=%v found=%v trace=%v, want ErrWarmStart", tc.name, order, err, res.Found, res.Trace)
			}
		}
	}
}
