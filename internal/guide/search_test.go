package guide

import (
	"context"
	"reflect"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// testBudget is small enough for CI but large enough that the search
// reaches a schedule on the 2-batch plant (the full portfolio finds one
// in ~140 explored states).
var testBudget = Budget{ProbeStates: 4000, MaxProbes: 20}

// TestSearchDeterministic: identical config, portfolio, budget, and seed
// must yield the identical probe sequence, scores, and winner — the
// contract that makes discovery results reproducible and cacheable.
func TestSearchDeterministic(t *testing.T) {
	cfg := plant.Config{Qualities: plant.CycleQualities(2)}
	run := func() *Result {
		res, err := Search(context.Background(), cfg, Options{Budget: testBudget, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Best.Guides != b.Best.Guides {
		t.Errorf("winner differs across runs: %s vs %s", a.Best.Guides, b.Best.Guides)
	}
	if a.Best.Explored != b.Best.Explored || a.Best.Stored != b.Best.Stored {
		t.Errorf("winning score differs: (%d,%d) vs (%d,%d)",
			a.Best.Explored, a.Best.Stored, b.Best.Explored, b.Best.Stored)
	}
	if a.Probes != b.Probes {
		t.Errorf("probe count differs: %d vs %d", a.Probes, b.Probes)
	}
	strip := func(evs []Evaluation) []Evaluation {
		out := make([]Evaluation, len(evs))
		for i, ev := range evs {
			ev.Duration = 0 // wall clock is the only nondeterministic field
			ev.Trace = nil
			out[i] = ev
		}
		return out
	}
	if !reflect.DeepEqual(strip(a.Evaluations), strip(b.Evaluations)) {
		t.Error("evaluation sequences differ across identical runs")
	}
}

// TestSearchSeedOnlyChangesOrder: a different seed may visit candidates
// differently but still has to find a schedule and pass the replay check.
func TestSearchSeedOnlyChangesOrder(t *testing.T) {
	cfg := plant.Config{Qualities: plant.CycleQualities(2)}
	res, err := Search(context.Background(), cfg, Options{Budget: testBudget, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Found || !res.Best.Replayed {
		t.Errorf("seed 99: Found=%v Replayed=%v, want both true", res.Best.Found, res.Best.Replayed)
	}
}

// TestSearchBeatsHandWrittenGuides is the acceptance pin: starting from
// NoGuides, the search must discover a guide set whose schedule costs at
// most 10% more stored states than the hand-written AllGuides model under
// the same oracle. (Empirically it finds a strictly smaller set that is
// cheaper than AllGuides.)
func TestSearchBeatsHandWrittenGuides(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-probe oracle search")
	}
	const probeStates = 25000
	cfg := plant.Config{Qualities: plant.CycleQualities(2)}

	// Hand-written reference: AllGuides under the identical oracle setup.
	ref := plant.MustBuild(plant.Config{Qualities: cfg.Qualities, Guides: plant.AllGuides})
	opts := mc.DefaultOptions(mc.DFS)
	opts.MaxStates = probeStates
	opts.Workers = 1
	opts.Observer = &mc.FuncObserver{Priority: ref.Priority}
	refRes, err := mc.Explore(ref.Sys, ref.Goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Found {
		t.Fatal("AllGuides reference found no schedule")
	}

	res, err := Search(context.Background(), cfg, Options{
		Budget: Budget{ProbeStates: probeStates, MaxProbes: 64},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Found {
		t.Fatal("search found no schedule within budget")
	}
	if !res.Best.Replayed {
		t.Error("winning schedule was not replay-verified")
	}
	limit := refRes.Stats.StatesStored * 110 / 100
	if res.Best.Stored > limit {
		t.Errorf("discovered guides store %d states, want <= %d (110%% of AllGuides' %d)",
			res.Best.Stored, limit, refRes.Stats.StatesStored)
	}
	// Every schedule-finding probe must have passed the replay check.
	for _, ev := range res.Evaluations {
		if ev.Found && !ev.Replayed {
			t.Errorf("probe %s found a schedule but skipped the replay check", ev.Guides)
		}
	}
	// The baseline (unguided, capped) must not have found one — otherwise
	// this instance doesn't exercise guide discovery at all.
	if res.Baseline.Found {
		t.Error("unguided baseline found a schedule within the cap; instance too easy")
	}
}

// TestMapTraceReplaysGuidedScheduleUnguided is the soundness contract the
// search relies on, exercised directly: a schedule found under the full
// hand-written guides, re-indexed with plant.MapTrace, replays on the
// unguided model through the witness-trace contract.
func TestMapTraceReplaysGuidedScheduleUnguided(t *testing.T) {
	qualities := plant.CycleQualities(2)
	guided := plant.MustBuild(plant.Config{Qualities: qualities, Guides: plant.AllGuides})
	unguided := plant.MustBuild(plant.Config{Qualities: qualities, Guides: plant.NoGuides})

	opts := mc.DefaultOptions(mc.DFS)
	opts.Workers = 1
	opts.Observer = &mc.FuncObserver{Priority: guided.Priority}
	res, err := mc.Explore(guided.Sys, guided.Goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("guided search found no schedule")
	}
	mapped, err := plant.MapTrace(guided.Sys, unguided.Sys, res.Trace)
	if err != nil {
		t.Fatalf("MapTrace: %v", err)
	}
	if err := mc.CheckTrace(unguided.Sys, unguided.Goal, mapped); err != nil {
		t.Fatalf("guided schedule does not replay on the unguided model: %v", err)
	}
}

// TestSearchRespectsContext: cancellation aborts between probes with the
// context's error and partial results.
func TestSearchRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := plant.Config{Qualities: plant.CycleQualities(2)}
	_, err := Search(ctx, cfg, Options{Budget: testBudget, Seed: 1})
	if err == nil {
		t.Fatal("canceled search returned no error")
	}
}

// TestBudgetExhaustionIsGraceful: a one-probe budget stops after the
// baseline without an error, reporting the best answer so far.
func TestBudgetExhaustionIsGraceful(t *testing.T) {
	cfg := plant.Config{Qualities: plant.CycleQualities(1)}
	res, err := Search(context.Background(), cfg, Options{
		Budget: Budget{ProbeStates: 2000, MaxProbes: 1},
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("budget exhaustion surfaced as error: %v", err)
	}
	if res.Probes != 1 {
		t.Errorf("spent %d probes, budget was 1", res.Probes)
	}
}
