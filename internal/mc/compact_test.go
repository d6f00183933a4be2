// Tests of the compact (minimal-constraint) passed store: Options.Compact
// must change only the memory profile, never verdicts, traces, or
// schedules. Model builders are shared with parallel_test.go (same external
// test package).
package mc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/schedule"
	"guidedta/internal/ta"
)

// compactModels is every example model the agreement tests run over.
func compactModels() []struct {
	name  string
	build func(testing.TB) (*ta.System, mc.Goal)
} {
	return []struct {
		name  string
		build func(testing.TB) (*ta.System, mc.Goal)
	}{
		{"fischer-safe", func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 3, true) }},
		{"fischer-broken", func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 3, false) }},
		// Eviction-heavy: exhaustive Fischer-5 stores 3,631 states under
		// BFS and evicts 2,418, where Fischer-3 evicts almost none.
		{"fischer5-safe", func(tb testing.TB) (*ta.System, mc.Goal) { return fischerModel(tb, 5, true) }},
		{"traingate-safe", func(tb testing.TB) (*ta.System, mc.Goal) { return traingateModel(tb, 3) }},
		{"traingate-unsafe", func(tb testing.TB) (*ta.System, mc.Goal) { return traingateModel(tb, 7) }},
		{"jobshop", jobshopModel},
	}
}

// TestCompactMatchesDefaultExactly: the compact store makes bit-identical
// subsumption decisions, so the sequential search must visit states in the
// same order and return the IDENTICAL trace, not merely the same verdict.
func TestCompactMatchesDefaultExactly(t *testing.T) {
	for _, m := range compactModels() {
		for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
			for _, inclusion := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/inclusion=%v", m.name, order, inclusion), func(t *testing.T) {
					sys, goal := m.build(t)
					opts := mc.DefaultOptions(order)
					opts.Inclusion = inclusion
					opts.Compact = false // explicit: Compact is the default now
					def, err := mc.Explore(sys, goal, opts)
					if err != nil {
						t.Fatal(err)
					}
					sys, goal = m.build(t)
					opts.Compact = true
					cmp, err := mc.Explore(sys, goal, opts)
					if err != nil {
						t.Fatal(err)
					}
					if cmp.Found != def.Found {
						t.Fatalf("compact found=%v, default found=%v", cmp.Found, def.Found)
					}
					if !reflect.DeepEqual(cmp.Trace, def.Trace) {
						t.Fatalf("compact trace differs from default trace:\ncompact: %v\ndefault: %v",
							cmp.Trace, def.Trace)
					}
					if cmp.Stats.StatesExplored != def.Stats.StatesExplored ||
						cmp.Stats.StatesStored != def.Stats.StatesStored ||
						cmp.Stats.Evictions != def.Stats.Evictions {
						t.Fatalf("search effort diverged: compact %+v vs default %+v", cmp.Stats, def.Stats)
					}
					if cmp.Stats.StatesStored > 0 && cmp.Stats.AvgZoneConstraints <= 0 {
						t.Error("AvgZoneConstraints not populated by the compact store")
					}
					checkTrace(t, sys, cmp)
				})
			}
		}
	}
}

// TestCompactParallelMatchesSequential extends the parallel agreement tests
// to the compact sharded store on every example model.
func TestCompactParallelMatchesSequential(t *testing.T) {
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, m := range compactModels() {
		for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
			t.Run(fmt.Sprintf("%s/%v", m.name, order), func(t *testing.T) {
				sys, goal := m.build(t)
				opts := mc.DefaultOptions(order)
				opts.Compact = true
				seq, err := mc.Explore(sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					sys, goal := m.build(t)
					popts := opts
					popts.Workers = w
					par, err := mc.Explore(sys, goal, popts)
					if err != nil {
						t.Fatal(err)
					}
					if par.Found != seq.Found {
						t.Fatalf("workers=%d: compact parallel found=%v, sequential found=%v",
							w, par.Found, seq.Found)
					}
					if par.Abort != mc.AbortNone {
						t.Fatalf("workers=%d: unexpected abort %q", w, par.Abort)
					}
					checkTrace(t, sys, par)
				}
			})
		}
	}
}

// TestCompactPlantSchedules runs the guided batch-plant pipeline with the
// compact store: the sequential schedule must be identical to the default
// store's, and the parallel witness must still project to a valid schedule.
func TestCompactPlantSchedules(t *testing.T) {
	cases := []struct {
		guides  plant.GuideLevel
		batches int
		order   mc.SearchOrder
	}{
		{plant.AllGuides, 1, mc.DFS},
		{plant.AllGuides, 2, mc.DFS},
		{plant.AllGuides, 2, mc.BFS},
		{plant.SomeGuides, 2, mc.DFS},
		// 3 batches reaches zone dimensions where the store's RowMask
		// eviction gate and the pivot-restricted closures actually bite; the
		// stats parity check below pinned a gate bug at this size.
		{plant.AllGuides, 3, mc.DFS},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%vGuides/%v/batches=%d", c.guides, c.order, c.batches), func(t *testing.T) {
			run := func(compact bool, workers int) (mc.Result, *plant.Plant) {
				p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(c.batches), Guides: c.guides})
				if err != nil {
					t.Fatal(err)
				}
				opts := mc.DefaultOptions(c.order)
				opts.Observer = &mc.FuncObserver{Priority: p.Priority}
				opts.Compact = compact
				opts.Workers = workers
				res, err := mc.Explore(p.Sys, p.Goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res, p
			}
			def, _ := run(false, 1)
			cmp, p := run(true, 1)
			if !cmp.Found || !def.Found {
				t.Fatalf("schedule not found: compact=%v default=%v", cmp.Found, def.Found)
			}
			if !reflect.DeepEqual(cmp.Trace, def.Trace) {
				t.Fatal("compact store changed the synthesized trace")
			}
			if cmp.Stats.StatesExplored != def.Stats.StatesExplored ||
				cmp.Stats.StatesStored != def.Stats.StatesStored ||
				cmp.Stats.Evictions != def.Stats.Evictions {
				t.Fatalf("search effort diverged: compact explored=%d stored=%d evicted=%d, default explored=%d stored=%d evicted=%d",
					cmp.Stats.StatesExplored, cmp.Stats.StatesStored, cmp.Stats.Evictions,
					def.Stats.StatesExplored, def.Stats.StatesStored, def.Stats.Evictions)
			}
			defSched := scheduleOf(t, p, def)
			cmpSched := scheduleOf(t, p, cmp)
			if defSched.Format() != cmpSched.Format() {
				t.Fatalf("schedules differ:\ncompact:\n%s\ndefault:\n%s", cmpSched.Format(), defSched.Format())
			}
			// The compact passed list must be materially smaller even at
			// these 1–2 batch toy sizes, where the discrete part of each
			// state dominates the small DBMs (≥2× is pinned at larger scale
			// by TestCompactMemoryReduction; the ratio grows with the clock
			// count — 12.8× on the capped 15-batch instance, see mcbench).
			if def.Stats.StoreBytes > 0 && cmp.Stats.StoreBytes*5 > def.Stats.StoreBytes*4 {
				t.Errorf("compact store bytes %d not ≥1.25× below default %d",
					cmp.Stats.StoreBytes, def.Stats.StoreBytes)
			}
			par, pp := run(true, 4)
			if !par.Found {
				t.Fatal("compact parallel search did not find the schedule")
			}
			if err := scheduleOf(t, pp, par).Validate(); err != nil {
				t.Fatalf("compact parallel schedule invalid: %v", err)
			}
		})
	}
}

func scheduleOf(t *testing.T, p *plant.Plant, res mc.Result) schedule.Schedule {
	t.Helper()
	steps, err := mc.Concretize(p.Sys, res.Trace)
	if err != nil {
		t.Fatalf("trace does not concretize: %v", err)
	}
	s := schedule.FromTrace(p, steps)
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return s
}

// TestCompactBestTime covers the remaining sequential order: best-first
// time-optimal search over the compact store.
func TestCompactBestTime(t *testing.T) {
	sys, goal := jobshopModel(t)
	opts := mc.DefaultOptions(mc.BestTime)
	opts.TimeClock = 1
	opts.TimeHorizon = 64
	def, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, goal = jobshopModel(t)
	opts.Compact = true
	cmp, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Found != def.Found || !reflect.DeepEqual(cmp.Trace, def.Trace) {
		t.Fatalf("BestTime compact diverged: found=%v/%v", cmp.Found, def.Found)
	}
}

// TestCompactStress is the race-stress run of the compact sharded store:
// many seeds, random worker counts and exploration orders, agreement with
// the sequential compact answer every time. Run under -race in CI.
func TestCompactStress(t *testing.T) {
	iterations := 16
	if testing.Short() {
		iterations = 6
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 1000))
		prio := func(tr mc.Transition) int {
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
		seqOpts.Compact = true
		seq, err := mc.Explore(sys, goal, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		sys, goal = fischerModel(t, 3, !broken)
		parOpts := seqOpts
		parOpts.Workers = 2 + rng.Intn(7)
		par, err := mc.Explore(sys, goal, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Found != seq.Found {
			t.Fatalf("seed %d (workers=%d, %v): compact parallel found=%v, sequential found=%v",
				seed, parOpts.Workers, order, par.Found, seq.Found)
		}
		checkTrace(t, sys, par)
	}
}

// TestCompactMemoryReduction pins the headline number at test scale: on a
// guided 4-batch plant model the compact store must use at
// most half the passed bytes of the full-DBM store, with identical search
// effort. The ratio keeps growing with the instance — see cmd/mcbench and
// BENCH_mc.json for the tracked trajectory up to 15 batches.
func TestCompactMemoryReduction(t *testing.T) {
	run := func(compact bool) mc.Result {
		p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(4), Guides: plant.AllGuides})
		if err != nil {
			t.Fatal(err)
		}
		opts := mc.DefaultOptions(mc.DFS)
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		opts.Compact = compact
		res, err := mc.Explore(p.Sys, p.Goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(false)
	cmp := run(true)
	if !def.Found || !cmp.Found {
		t.Fatalf("schedule not found: default=%v compact=%v", def.Found, cmp.Found)
	}
	if cmp.Stats.StoreBytes*2 > def.Stats.StoreBytes {
		t.Errorf("compact StoreBytes=%d, want ≤ half of default %d (ratio %.2fx)",
			cmp.Stats.StoreBytes, def.Stats.StoreBytes,
			float64(def.Stats.StoreBytes)/float64(cmp.Stats.StoreBytes))
	}
	if cmp.Stats.MemBytes >= def.Stats.MemBytes {
		t.Errorf("compact peak MemBytes=%d not below default %d", cmp.Stats.MemBytes, def.Stats.MemBytes)
	}
	t.Logf("store bytes: default=%d compact=%d (%.2fx); bytes/state: %.0f vs %.0f; avg constraints/zone: %.1f",
		def.Stats.StoreBytes, cmp.Stats.StoreBytes,
		float64(def.Stats.StoreBytes)/float64(cmp.Stats.StoreBytes),
		def.Stats.BytesPerStoredState(), cmp.Stats.BytesPerStoredState(),
		cmp.Stats.AvgZoneConstraints)
}
