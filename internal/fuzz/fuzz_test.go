package fuzz

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// Every generated spec must build into a valid frozen system, serialize
// to tadsl, and parse back — the repro pipeline (shrink → corpus file)
// depends on all three holding unconditionally.
func TestGenerateBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 300
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		spec := Generate(rng, DefaultGenConfig())
		sys, goal, err := spec.Build()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if goal.Deadlock {
			t.Fatalf("spec %d: generator emitted a deadlock goal", i)
		}
		src, err := spec.Source()
		if err != nil {
			t.Fatalf("spec %d: Source: %v", i, err)
		}
		m, err := tadsl.Parse(src)
		if err != nil {
			t.Fatalf("spec %d: reparse:\n%s\n%v", i, src, err)
		}
		if !m.HasQuery {
			t.Fatalf("spec %d: serialized form lost the query", i)
		}
		// The serialized form must denote the same model: hash both.
		h1, err := tadsl.Hash(sys, &goal)
		if err != nil {
			t.Fatalf("spec %d: hash: %v", i, err)
		}
		h2, err := tadsl.Hash(m.Sys, &m.Query)
		if err != nil {
			t.Fatalf("spec %d: reparse hash: %v", i, err)
		}
		if h1 != h2 {
			t.Fatalf("spec %d: model changed identity across serialization:\n%s", i, src)
		}
	}
}

// Generation is deterministic per seed: campaigns reproduce exactly.
func TestGenerateDeterministic(t *testing.T) {
	s1 := Generate(rand.New(rand.NewSource(7)), DefaultGenConfig())
	s2 := Generate(rand.New(rand.NewSource(7)), DefaultGenConfig())
	src1, err1 := s1.Source()
	src2, err2 := s2.Source()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if src1 != src2 {
		t.Error("same seed produced different specs")
	}
}

// The engine, as shipped, must survive a cross-check campaign with zero
// contract violations.
func TestCrossCheckClean(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 8
	}
	h := &Harness{}
	problems := h.Run(1, cases, nil)
	for _, p := range problems {
		src, _ := p.Spec.Source()
		t.Errorf("%v\n%s", p, src)
	}
}

// An injected engine bug — a wrapper that reports "unreachable" for one
// exact configuration whenever the goal is in fact reachable — must be
// caught as a divergence and shrunk to a corpus-sized (≤ 40-line) repro.
func TestMutationCaughtAndShrunk(t *testing.T) {
	broken := func(sys *ta.System, goal mc.Goal, opts mc.Options) (mc.Result, error) {
		res, err := mc.Explore(sys, goal, opts)
		if err == nil && opts.Search == mc.DFS && !opts.Inclusion && res.Found {
			res.Found = false
			res.Trace = nil
		}
		return res, err
	}
	h := &Harness{Explore: broken}
	// Enough cases that at least one reachable-goal model appears.
	problems := h.Run(1, 15, nil)
	var div *Problem
	for _, p := range problems {
		if p.Kind == "divergence" {
			div = p
			break
		}
	}
	if div == nil {
		t.Fatalf("injected verdict flip not caught (got %d problems)", len(problems))
	}
	lines := div.Spec.SourceLines()
	if lines <= 0 || lines > 40 {
		src, _ := div.Spec.Source()
		t.Errorf("shrunk repro has %d lines, want 1..40:\n%s", lines, src)
	}
	// The shrunk spec must still reproduce under the broken engine.
	if !problemOfKind(h.CheckSpec(0, div.Spec), "divergence") {
		t.Error("shrunk spec no longer reproduces the divergence")
	}
	// ... and be clean under the real engine: the minimization must not
	// have wandered onto an unrelated failure.
	if ps := (&Harness{}).CheckSpec(0, div.Spec); len(ps) != 0 {
		t.Errorf("shrunk spec fails the healthy engine too: %v", ps[0])
	}
}

// A second mutation flavor: a config that corrupts its witness trace must
// trip the trace contract (replay/concretize chain), not slip through.
func TestTraceMutationCaught(t *testing.T) {
	broken := func(sys *ta.System, goal mc.Goal, opts mc.Options) (mc.Result, error) {
		res, err := mc.Explore(sys, goal, opts)
		if err == nil && opts.Compact && res.Found && len(res.Trace) > 1 {
			res.Trace = res.Trace[:len(res.Trace)-1] // drop the final step
		}
		return res, err
	}
	h := &Harness{Explore: broken}
	problems := h.Run(1, 15, nil)
	if !problemOfKind(problems, "trace") {
		t.Fatalf("truncated trace not caught (got %d problems)", len(problems))
	}
}

// A mutant that swaps the sender and receiver of a synchronization keeps
// every source location and guard intact; only the legal-step rule's
// send/receive pairing can catch it.
func TestSyncSwapMutationCaught(t *testing.T) {
	broken := func(sys *ta.System, goal mc.Goal, opts mc.Options) (mc.Result, error) {
		res, err := mc.Explore(sys, goal, opts)
		if err != nil || !opts.Compact || !res.Found {
			return res, err
		}
		res.Trace = append([]mc.Transition(nil), res.Trace...)
		for i, tr := range res.Trace {
			if !tr.Internal() {
				res.Trace[i].A1, res.Trace[i].E1, res.Trace[i].A2, res.Trace[i].E2 = tr.A2, tr.E2, tr.A1, tr.E1
				break
			}
		}
		return res, err
	}
	h := &Harness{Explore: broken}
	problems := h.Run(1, 15, nil)
	if !problemOfKind(problems, "trace") {
		t.Fatalf("sender/receiver swap not caught (got %d problems)", len(problems))
	}
}

func problemOfKind(ps []*Problem, kind string) bool {
	for _, p := range ps {
		if p.Kind == kind {
			return true
		}
	}
	return false
}

// The corpus holds shrunk repros of previously found bugs; every file
// must pass the full configuration matrix and trace contract forever.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.gta"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus is empty; expected seeded .gta repros")
	}
	h := &Harness{}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tadsl.Parse(string(data))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !m.HasQuery {
				t.Fatal("corpus file has no query")
			}
			for _, p := range h.CheckModel(0, m.Sys, m.Query) {
				t.Errorf("%v", p)
			}
		})
	}
}

// The urgent-stall corpus file is the concretizer-urgency regression: its
// trace enters an urgent location whose exit needs x >= 3, so the correct
// schedule fires both steps at t=3 — any schedule that fires the entry
// earlier stalls inside the urgent location.
func TestCorpusUrgentStallTiming(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "urgent-stall.gta"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := tadsl.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Explore(m.Sys, m.Query, mc.DefaultOptions(mc.BFS))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("goal unreachable")
	}
	steps, err := mc.Concretize(m.Sys, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0].Time != steps[1].Time {
		t.Errorf("schedule stalls inside the urgent location: %s",
			strings.TrimSpace(mc.FormatTrace(m.Sys, steps)))
	}
}

// Shrinking a spec against a trivially-true predicate must drive it to
// the structural minimum without ever producing an unbuildable spec.
func TestShrinkReachesMinimum(t *testing.T) {
	spec := Generate(rand.New(rand.NewSource(3)), DefaultGenConfig())
	shrunk := Shrink(spec, func(s *Spec) bool {
		_, _, err := s.Build()
		return err == nil
	})
	if _, _, err := shrunk.Build(); err != nil {
		t.Fatalf("shrunk spec does not build: %v", err)
	}
	if len(shrunk.Automata) > len(spec.Automata) {
		t.Error("shrink grew the spec")
	}
	if lines := shrunk.SourceLines(); lines > 20 {
		src, _ := shrunk.Source()
		t.Errorf("shrink left %d lines for an unconstrained predicate:\n%s", lines, src)
	}
}

// The end-to-end plant sweep: synthesized schedules must survive the
// simulated plant across guide levels, batch counts, link regimes, and
// the battery-wear/re-synthesis loop.
func TestPlantSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("plant synthesis is seconds-scale")
	}
	for _, p := range RunPlantSweep(1, mc.DefaultOptions(mc.DFS), nil) {
		t.Errorf("%v", p)
	}
}

// TestWarmResynthesis: the 2-batch all-guides plant is synthesized once
// with its final checkpoint kept, and each disturbance is then
// re-synthesized cold and warm-started from that seed. Every warm run must
// find a schedule that replays on the unguided model of the disturbed
// plant, and the Section 6 wear must be solved from the seed with at most
// half the cold run's explored states.
func TestWarmResynthesis(t *testing.T) {
	build := func(p plant.Params, g plant.GuideLevel) *plant.Plant {
		pl, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(2), Guides: g, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	options := func(p *plant.Plant) mc.Options {
		opts := mc.DefaultOptions(mc.DFS)
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		return opts
	}
	seed := filepath.Join(t.TempDir(), "base.ckpt")
	base := build(plant.DefaultParams(), plant.AllGuides)
	opts := options(base)
	opts.Checkpoint = mc.CheckpointOptions{Path: seed, KeepFinal: true}
	if res, err := mc.Explore(base.Sys, base.Goal, opts); err != nil || !res.Found {
		t.Fatalf("base synthesis: found=%v err=%v", res.Found, err)
	}

	deadline, treatB := plant.DefaultParams(), plant.DefaultParams()
	deadline.Deadline -= 10
	treatB.TreatB += 3
	for _, c := range []struct {
		name   string
		params plant.Params
		halves bool // warm explored <= cold explored / 2
	}{
		{"wear", wornParams(), true},
		{"deadline-10", deadline, false},
		{"treatB+3", treatB, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := build(c.params, plant.AllGuides)
			cold, err := mc.Explore(p.Sys, p.Goal, options(p))
			if err != nil || !cold.Found {
				t.Fatalf("cold: found=%v err=%v", cold.Found, err)
			}
			wopts := options(p)
			wopts.WarmStart = mc.WarmStartOptions{Path: seed}
			warm, err := mc.Explore(p.Sys, p.Goal, wopts)
			if err != nil || !warm.WarmStarted || !warm.Found {
				t.Fatalf("warm: started=%v found=%v err=%v", warm.WarmStarted, warm.Found, err)
			}
			unguided := build(c.params, plant.NoGuides)
			mapped, err := plant.MapTrace(p.Sys, unguided.Sys, warm.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := mc.CheckTrace(unguided.Sys, unguided.Goal, mapped); err != nil {
				t.Fatalf("warm schedule fails the unguided replay: %v", err)
			}
			if c.halves && warm.Stats.StatesExplored > cold.Stats.StatesExplored/2 {
				t.Errorf("warm explored %d states, cold %d: less than a 2x saving",
					warm.Stats.StatesExplored, cold.Stats.StatesExplored)
			}
		})
	}
}
