// Warm-start tests: a warm start from another (or the same) model's
// kept-final checkpoint either answers with a seed witness replayed on
// the current model, exploring nothing, or is exactly a cold search —
// same verdict, counts and trace. Model pairs are built so both paths,
// and the seeds whose stale states would lie about the current model,
// trigger deterministically rather than by timing.
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

// keptPathOnly asserts that the kept-final checkpoint at path is the
// run's witness path: len(trace)+1 nodes, root to goal, whose one store
// entry, the goal, is the only node carrying state, and no frontier —
// whether the run searched or replayed, and whatever its seed held.
func keptPathOnly(t *testing.T, path string, trace []mc.Transition) {
	t.Helper()
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Final || len(cp.Store) != 1 || len(cp.Nodes) != len(trace)+1 || len(cp.Frontier) != 0 {
		t.Fatalf("kept snapshot: final %v, %d store entries, %d nodes, %d waiting; want a final file of 1, %d (its path), 0",
			cp.Final, len(cp.Store), len(cp.Nodes), len(cp.Frontier), len(trace)+1)
	}
	for ix := range cp.Nodes {
		if cp.Nodes[ix].HasState != (int32(ix) == cp.Store[0]) {
			t.Fatalf("kept node %d: HasState %v, but only the goal, node %d, carries state", ix, cp.Nodes[ix].HasState, cp.Store[0])
		}
	}
	goal := cp.Store[0]
	for ix, d := goal, len(trace); ; ix, d = cp.Nodes[ix].Parent, d-1 {
		sn := &cp.Nodes[ix]
		if int(sn.Depth) != d {
			t.Fatalf("kept node %d at depth %d, want %d", ix, sn.Depth, d)
		}
		if d == 0 {
			if sn.Parent >= 0 {
				t.Fatalf("kept root %d has parent %d", ix, sn.Parent)
			}
			break
		}
		v := trace[d-1]
		if sn.Via != [5]int32{int32(v.Chan), int32(v.A1), int32(v.E1), int32(v.A2), int32(v.E2)} {
			t.Fatalf("kept node %d came by %v, the trace's step %d is %v", ix, sn.Via, d, v)
		}
	}
}

// TestKeepFinalKeepsWitnessPath: a run that finds its goal by searching,
// sequentially or in parallel and with either store, keeps its witness
// path, not its store and frontier.
func TestKeepFinalKeepsWitnessPath(t *testing.T) {
	for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
		for _, workers := range []int{1, 4} {
			for _, compact := range []bool{false, true} {
				sys, goal := fischerModel(t, 4, false)
				opts := mc.DefaultOptions(order)
				opts.Workers, opts.Compact = workers, compact
				path, res := keepFinalCheckpoint(t, sys, goal, opts)
				if !res.Found || res.Stats.StatesStored <= len(res.Trace)+1 {
					t.Fatalf("%v/%d/compact=%v: found %v, stored %d; want a search of more than its path",
						order, workers, compact, res.Found, res.Stats.StatesStored)
				}
				keptPathOnly(t, path, res.Trace)
			}
		}
	}
}

// TestWarmStartSameModelInstantWitness: re-running the identical query
// warm-started from its own final checkpoint must find the goal by
// replaying the seed's goal state, exploring nothing:
// the witness is the seed run's own trace, it still replays and
// concretizes, and the run's kept-final checkpoint holds only its path,
// with the goal's zone in the store's compact form, equal to the seed's.
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
	if res.Stats.WarmReplays != 1 {
		t.Fatalf("warm run replayed %d candidates, want 1", res.Stats.WarmReplays)
	}
	keptPathOnly(t, kept, res.Trace)
	checkTrace(t, sys, goal, res)
	seedGoal, keptGoal := keptGoalZone(t, path), keptGoalZone(t, kept)
	if keptGoal.Kind != snapshot.ZoneCompact {
		t.Fatalf("replayed goal kept as zone kind %d, want the compact store's %d", keptGoal.Kind, snapshot.ZoneCompact)
	}
	if keptGoal.Dim != seedGoal.Dim || !slices.Equal(keptGoal.Cons, seedGoal.Cons) {
		t.Fatalf("replayed goal kept %v, its seed's searched goal %v", keptGoal, seedGoal)
	}
}

// keptGoalZone returns the goal zone of the kept-final snapshot at path.
func keptGoalZone(t *testing.T, path string) snapshot.Zone {
	t.Helper()
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Nodes[cp.Store[0]].Zone
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

// TestWarmStartParallel: a warm-started search with a worker count
// replays the seed's witness like the sequential one.
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
// returns the abort-time checkpoint: a seed whose stored states include
// an unexpanded frontier.
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

// TestWarmStartNoReplayRunsCold: a seed with no goal state that replays
// on the current model leaves a cold search, under every order and worker
// count: no error, WarmStarted unset, the cold verdict, and — sequentially
// — the cold explored and stored counts and trace. The seeds cover a
// missing file, a network of another shape (5 processes seeding 4), and
// three of the current shape: a stale-integer seed whose frontier state
// (v=1 at l1) the set=2 model cannot reach but whose guard it satisfies,
// a deadline-3 seed whose l1 is a deadlock on its own zone but not under
// the relaxed deadline 10, and a broken Fischer whose violations the
// correct protocol cannot replay. Stale states of the middle two, taken
// into the store, would lead a search to a goal this model does not have;
// their verdicts must equal the cold ones, which are negative. The last
// two are the run's own model's kept path with a corrupt chain — its goal
// a depth off its parent's, or its root's parent the goal — which Decode
// accepts: they must be screened out, not replayed (nor walked forever).
func TestWarmStartNoReplayRunsCold(t *testing.T) {
	type model func(testing.TB) (*ta.System, mc.Goal)
	fischer4 := func(inv bool) model {
		return func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 4, inv) }
	}
	fischerK := func(n int) model {
		return func(tb testing.TB) (*ta.System, mc.Goal) { return fischerKModel(tb, n, 2) }
	}
	seq := func(set int) model {
		return func(tb testing.TB) (*ta.System, mc.Goal) { return seqModel(tb, set) }
	}
	deadline := func(inv int32) model {
		return func(tb testing.TB) (*ta.System, mc.Goal) { return deadlineModel(tb, inv) }
	}
	keptFinal := func(m model) func(*testing.T) string {
		return func(t *testing.T) string {
			sys, goal := m(t)
			path, _ := keepFinalCheckpoint(t, sys, goal, mc.DefaultOptions(mc.DFS))
			return path
		}
	}
	// corrupt keeps m's final snapshot with its goal node, the one store
	// entry, mutated: a seed that would replay but for the damage.
	corrupt := func(m model, mutate func(cp *snapshot.Checkpoint, goal int32)) func(*testing.T) string {
		return func(t *testing.T) string {
			path := keptFinal(m)(t)
			cp, err := snapshot.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			mutate(cp, cp.Store[0])
			if err := snapshot.Write(path, cp); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	stateLimit := func(m model) func(*testing.T) string {
		return func(t *testing.T) string {
			sys, goal := m(t)
			return stateLimitSeed(t, sys, goal, mc.DefaultOptions(mc.BFS), 1)
		}
	}
	cases := []struct {
		name  string
		seed  func(*testing.T) string
		warm  model
		found bool // the cold verdict
		// replayed: the seed holds goal states of this model's shape, so
		// the warm run replays (and rejects) at least one.
		replayed bool
	}{
		{"missing-file", func(t *testing.T) string { return filepath.Join(t.TempDir(), "absent.ckpt") },
			fischerK(4), true, false},
		{"shape-mismatch", keptFinal(fischerK(5)), fischerK(4), true, false},
		{"stale-integer", stateLimit(seq(1)), seq(2), false, false},
		{"relaxed-deadlock", stateLimit(deadline(3)), deadline(10), false, false},
		{"correct-fischer", keptFinal(fischer4(false)), fischer4(true), false, true},
		{"depth-off-by-one", corrupt(fischerK(4), func(cp *snapshot.Checkpoint, goal int32) {
			cp.Nodes[goal].Depth++
		}), fischerK(4), true, false},
		{"parent-cycle", corrupt(fischerK(4), func(cp *snapshot.Checkpoint, goal int32) {
			root := goal
			for cp.Nodes[root].Parent >= 0 {
				root = cp.Nodes[root].Parent
			}
			cp.Nodes[root].Parent = goal
		}), fischerK(4), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.seed(t)
			for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
				for _, workers := range []int{1, 4} {
					opts := mc.DefaultOptions(order)
					opts.Workers = workers
					sys, goal := tc.warm(t)
					cold, err := mc.Explore(sys, goal, opts)
					if err != nil {
						t.Fatal(err)
					}
					if cold.Found != tc.found {
						t.Fatalf("%v/%d: cold found=%v, want %v; test model broken", order, workers, cold.Found, tc.found)
					}
					sys, goal = tc.warm(t)
					opts.WarmStart = mc.WarmStartOptions{Path: path}
					warm, err := mc.Explore(sys, goal, opts)
					if err != nil {
						t.Fatalf("%v/%d: %v", order, workers, err)
					}
					if warm.WarmStarted || warm.Found != cold.Found {
						t.Fatalf("%v/%d: WarmStarted=%v found=%v (trace %v), want a cold run finding %v",
							order, workers, warm.WarmStarted, warm.Found, warm.Trace, cold.Found)
					}
					if (warm.Stats.WarmReplays > 0) != tc.replayed {
						t.Fatalf("%v/%d: replayed %d candidates, want some: %v", order, workers, warm.Stats.WarmReplays, tc.replayed)
					}
					checkTrace(t, sys, goal, warm)
					if workers > 1 {
						continue
					}
					if warm.Stats.StatesExplored != cold.Stats.StatesExplored || warm.Stats.StatesStored != cold.Stats.StatesStored ||
						!slices.Equal(warm.Trace, cold.Trace) {
						t.Fatalf("%v: warm explored %d stored %d trace %v, cold %d, %d, %v", order,
							warm.Stats.StatesExplored, warm.Stats.StatesStored, warm.Trace,
							cold.Stats.StatesExplored, cold.Stats.StatesStored, cold.Trace)
					}
				}
			}
		})
	}
}
