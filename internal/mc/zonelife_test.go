// Zone-lifecycle tests: a full zone matrix exists only while its state is
// expanded (or is the root or the goal of a replayed witness). A DFS keeps
// the matrix of the successor it pops next instead of parking and
// inflating it, a warm start's replayed path keeps matrices at its two
// ends only, and a replay that fails hands every node and matrix it took
// back to the worker's free-lists. The explored, stored and eviction
// counts pinned here are those of the search before any of this.
package mc_test

import (
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// allGuidesPlant builds the all-guides plant of the given batches, with
// params edited by drift.
func allGuidesPlant(t testing.TB, batches int, drift func(*plant.Params)) *plant.Plant {
	t.Helper()
	pm := plant.DefaultParams()
	if drift != nil {
		drift(&pm)
	}
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(batches), Guides: plant.AllGuides, Params: pm})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plantDFS is the options of the paper's guided DFS search of p.
func plantDFS(p *plant.Plant) mc.Options {
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	return opts
}

// TestDFSInflatesPinned: a DFS pops the last successor it pushed, which
// keeps its matrix, so only the states popped after a backtrack are
// inflated from their compact form. Without that every explored state
// was inflated (275 and 91,521).
func TestDFSInflatesPinned(t *testing.T) {
	for _, tc := range []struct {
		batches                   int
		inflates                  int
		explored, stored, evicted int
	}{
		{batches: 3, inflates: 55, explored: 275, stored: 362, evicted: 54},
		{batches: 5, inflates: 44456, explored: 91521, stored: 24521, evicted: 67271},
	} {
		if tc.batches > 3 && testing.Short() {
			continue
		}
		p := allGuidesPlant(t, tc.batches, nil)
		res, inflates, err := mc.ExploreInflates(p.Sys, p.Goal, plantDFS(p))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%d batches: no schedule", tc.batches)
		}
		st := res.Stats
		got := [4]int{inflates, st.StatesExplored, st.StatesStored, int(st.Evictions)}
		want := [4]int{tc.inflates, tc.explored, tc.stored, tc.evicted}
		if got != want {
			t.Errorf("%d batches: inflates/explored/stored/evictions %v, want %v", tc.batches, got, want)
		}
	}
}

// TestWarmReplayHoldsPathEnds: the warm start of BenchmarkWarmKeepFinal's
// "step" — the 3-batch plant with treatment times drifted from (4,6) to
// (5,7), seeded from the nominal plant's kept path — replays the seed's
// witness. Of the replayed path only the root, which a failed replay
// would go on to search from, and the goal, which is kept, hold a full
// matrix.
func TestWarmReplayHoldsPathEnds(t *testing.T) {
	nominal := allGuidesPlant(t, 3, nil)
	seed, ref := keepFinalCheckpoint(t, nominal.Sys, nominal.Goal, plantDFS(nominal))
	drifted := allGuidesPlant(t, 3, func(pm *plant.Params) { pm.TreatA, pm.TreatB = 5, 7 })
	opts := plantDFS(drifted)
	opts.WarmStart = mc.WarmStartOptions{Path: seed}
	held, err := mc.WarmReplayHeld(drifted.Sys, drifted.Goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != len(ref.Trace)+1 {
		t.Fatalf("replayed path has %d nodes, the seed witness %d steps", len(held), len(ref.Trace))
	}
	for d, h := range held {
		if end := d == 0 || d == len(held)-1; h != end {
			t.Errorf("path node at depth %d of %d holds a matrix: %v, want %v", d, len(held)-1, h, end)
		}
	}
}

// TestFailedReplayLeavesNothing replays the nominal 3-batch witness where
// it fails: on plants whose drift empties a zone part way (fire fails),
// and cut one step short of the goal (the last state misses it). A
// failed replay recycles its chain, so replaying it again on the same
// worker takes every node, discrete array and matrix from the free-lists
// and allocates nothing; a chain left to the collector would cost two
// allocations or more per step. The count is not checked under the race
// detector, whose sync.Pool (the DBM kernels keep scratch rows in one)
// drops items at random.
func TestFailedReplayLeavesNothing(t *testing.T) {
	nominal := allGuidesPlant(t, 3, nil)
	ref, err := mc.Explore(nominal.Sys, nominal.Goal, plantDFS(nominal))
	if err != nil || !ref.Found {
		t.Fatalf("nominal search: found %v, %v", ref.Found, err)
	}
	for _, tc := range []struct {
		name  string
		drift func(*plant.Params)
		trace []mc.Transition
	}{
		{"deadline-56", func(pm *plant.Params) { pm.Deadline = 56 }, ref.Trace},
		{"cast-8", func(pm *plant.Params) { pm.CastTime = 8 }, ref.Trace},
		{"goal-miss", nil, ref.Trace[:len(ref.Trace)-1]},
	} {
		p := allGuidesPlant(t, 3, tc.drift)
		ok, allocs, err := mc.ReplayAllocs(p.Sys, p.Goal, plantDFS(p), tc.trace)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("%s: the replay reached the goal; the case needs one that fails", tc.name)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: a repeated failed replay allocates %v times, want 0", tc.name, allocs)
		}
	}
	ok, _, err := mc.ReplayAllocs(nominal.Sys, nominal.Goal, plantDFS(nominal), ref.Trace)
	if err != nil || !ok {
		t.Fatalf("the nominal witness does not replay on its own plant: %v, %v", ok, err)
	}
}
