package mc_test

import (
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/ta"
)

// TestMemBytesPinned pins the accounted memory of two searches next to
// their state counts, under both passed stores: exhaustive Fischer-5 BFS
// (eviction-heavy: 3,631 stored states over 727 discrete states) and the
// 3-batch all-guides plant DFS (362 over 346). The counts are fixed by
// the search; the bytes by the accounting rule — key and discrete part
// once per bucket, zone and node header once per entry — and the
// per-state footprint behind it. A per-state memory regression changes
// MemBytes here with no timing noise. Before buckets shared their
// discrete part the four MemBytes values were 1,480,242, 1,108,050,
// 506,264 and 243,424.
func TestMemBytesPinned(t *testing.T) {
	fischer5 := func(t *testing.T) (*ta.System, mc.Goal, mc.Options) {
		sys, goal := fischerModel(t, 5, true)
		return sys, goal, mc.DefaultOptions(mc.BFS)
	}
	plant3 := func(t *testing.T) (*ta.System, mc.Goal, mc.Options) {
		p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides})
		if err != nil {
			t.Fatal(err)
		}
		opts := mc.DefaultOptions(mc.DFS)
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		return p.Sys, p.Goal, opts
	}
	cases := []struct {
		name             string
		build            func(*testing.T) (*ta.System, mc.Goal, mc.Options)
		compact          bool
		stored, discrete int
		memBytes         int64
		// exhaustive searches end with the same antichains whatever the
		// interleaving, so a parallel run must store the same states in
		// the same buckets at the same bytes (its explored count and peak
		// MemBytes depend on the interleaving).
		exhaustive bool
	}{
		{"fischer5-bfs", fischer5, false, 3631, 727, 1378866, true},
		{"fischer5-bfs", fischer5, true, 3631, 727, 1006674, true},
		{"plant3-all-dfs", plant3, false, 362, 346, 502488, false},
		{"plant3-all-dfs", plant3, true, 362, 346, 239648, false},
	}
	for _, tc := range cases {
		run := func(workers int) mc.Stats {
			sys, goal, opts := tc.build(t)
			opts.Compact, opts.Workers = tc.compact, workers
			res, err := mc.Explore(sys, goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		st := run(1)
		if st.StatesStored != tc.stored || st.DiscreteStates != tc.discrete || st.MemBytes != tc.memBytes {
			t.Errorf("%s compact=%v: stored=%d discrete=%d MemBytes=%d, want %d %d %d",
				tc.name, tc.compact, st.StatesStored, st.DiscreteStates, st.MemBytes,
				tc.stored, tc.discrete, tc.memBytes)
		}
		if !tc.exhaustive {
			continue
		}
		par := run(4)
		if par.StatesStored != st.StatesStored || par.DiscreteStates != st.DiscreteStates || par.StoreBytes != st.StoreBytes {
			t.Errorf("%s compact=%v workers=4: stored=%d discrete=%d StoreBytes=%d, want the sequential %d %d %d",
				tc.name, tc.compact, par.StatesStored, par.DiscreteStates, par.StoreBytes,
				st.StatesStored, st.DiscreteStates, st.StoreBytes)
		}
	}
}
