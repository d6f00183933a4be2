package plant

import (
	"fmt"
	"strings"
	"testing"

	"guidedta/internal/mc"
)

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("empty production list accepted")
	}
	if _, err := Build(Config{Qualities: []Quality{Quality(9)}}); err == nil {
		t.Error("unknown quality accepted")
	}
}

func TestModelSizeMatchesPaperFormula(t *testing.T) {
	// The paper's 60-batch model has 125 automata and 183 clocks; ours has
	// one list automaton in place of their load-list and a global clock
	// for min-time search: 2N+4 automata and 3N+3 clocks (+ the global
	// clock, which the stats count).
	for _, n := range []int{1, 10, 60} {
		p := MustBuild(Config{Qualities: CycleQualities(n), Guides: AllGuides})
		st := p.Sys.Stats()
		if want := 2*n + 4; st.Automata != want {
			t.Errorf("n=%d: %d automata, want %d", n, st.Automata, want)
		}
		if want := 3*n + 3 + 1; st.Clocks != want {
			t.Errorf("n=%d: %d clocks, want %d", n, st.Clocks, want)
		}
	}
}

// countGuideDecorations counts edges carrying a guide annotation, the
// paper's "decorating the transitions with extra guards".
func countGuideDecorations(p *Plant) int {
	n := 0
	for _, a := range p.Sys.Automata {
		for _, e := range a.Edges {
			if strings.HasPrefix(e.Comment, "guide:") {
				n++
			}
		}
	}
	return n
}

func TestGuidedModelHasExtraGuards(t *testing.T) {
	// Figures 3 vs 4 of the paper: guiding adds guards referencing new
	// variables but does not change the plant's structure.
	qs := CycleQualities(2)
	none := MustBuild(Config{Qualities: qs, Guides: NoGuides})
	some := MustBuild(Config{Qualities: qs, Guides: SomeGuides})
	all := MustBuild(Config{Qualities: qs, Guides: AllGuides})

	gNone := countGuideDecorations(none)
	gSome := countGuideDecorations(some)
	gAll := countGuideDecorations(all)
	if !(gNone == 0 && 0 < gSome && gSome < gAll) {
		t.Errorf("guide decorations not increasing: none=%d some=%d all=%d", gNone, gSome, gAll)
	}
	// Guide variables exist only in guided models.
	if _, _, ok := none.Sys.Table.LookupArray("next"); ok {
		t.Error("unguided model declares the next guide variable")
	}
	if _, _, ok := some.Sys.Table.LookupArray("next"); !ok {
		t.Error("some-guides model lacks the next guide variable")
	}
	if _, ok := some.Sys.Table.LookupVar("nextbatch"); ok {
		t.Error("some-guides model must not use nextbatch (the paper's distinction)")
	}
	if _, ok := all.Sys.Table.LookupVar("nextbatch"); !ok {
		t.Error("all-guides model lacks nextbatch")
	}
}

func TestGuideComments(t *testing.T) {
	p := MustBuild(Config{Qualities: CycleQualities(1), Guides: AllGuides})
	count := 0
	for _, a := range p.Sys.Automata {
		for _, e := range a.Edges {
			if strings.HasPrefix(e.Comment, "guide:") {
				count++
			}
		}
	}
	if count < 10 {
		t.Errorf("only %d guide-annotated edges; expected the model to be visibly decorated", count)
	}
}

func TestScheduleFoundPerGuideLevelAndQuality(t *testing.T) {
	cases := []struct {
		name string
		qs   []Quality
		g    GuideLevel
	}{
		{"all-1", []Quality{Q1}, AllGuides},
		{"all-2", []Quality{Q1, Q2}, AllGuides},
		{"all-3", []Quality{Q1, Q2, Q3}, AllGuides},
		{"all-q4", []Quality{Q4}, AllGuides},
		{"all-q5", []Quality{Q5}, AllGuides},
		{"all-mixed", []Quality{Q4, Q5, Q1}, AllGuides},
		{"some-1", []Quality{Q2}, SomeGuides},
		{"some-2", []Quality{Q2, Q3}, SomeGuides},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustBuild(Config{Qualities: tc.qs, Guides: tc.g})
			opts := mc.DefaultOptions(mc.DFS)
			opts.MaxStates = 3_000_000
			res, err := mc.Explore(p.Sys, p.Goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Fatalf("no schedule (abort=%q, %v)", res.Abort, res.Stats)
			}
			steps, err := mc.Concretize(p.Sys, res.Trace)
			if err != nil {
				t.Fatalf("concretize: %v", err)
			}
			// Deadline: every batch's cast must start within Deadline of
			// its pour.
			pour := make(map[int]int64)
			for _, s := range steps {
				for _, ae := range [][2]int{{s.Trans.A1, s.Trans.E1}, {s.Trans.A2, s.Trans.E2}} {
					if ae[0] < 0 {
						continue
					}
					cmd, ok := p.Command(ae[0], ae[1])
					if !ok {
						continue
					}
					switch {
					case strings.HasPrefix(cmd.Action, "PourTrack"):
						pour[batchOf(t, cmd.Unit)] = s.Time
					case strings.HasPrefix(cmd.Action, "CastLoad"):
						b := cmd.Arg
						dl := int64(p.Cfg.Params.Deadline) * mc.Half
						if s.Time-pour[b] > dl {
							t.Errorf("batch %d cast %s after pour, deadline %d",
								b, mc.TimeString(s.Time-pour[b]), p.Cfg.Params.Deadline)
						}
					}
				}
			}
		})
	}
}

func batchOf(t *testing.T, unit string) int {
	t.Helper()
	var b int
	if _, err := fmt.Sscanf(unit, "Load%d", &b); err != nil {
		t.Fatalf("bad unit %q", unit)
	}
	return b
}

func TestUnguidedSmallInstanceStillSolvable(t *testing.T) {
	// The paper's "No Guides" column solves one or two batches. One batch
	// must be solvable (if slowly); this is the control for the guiding
	// comparison.
	if testing.Short() {
		t.Skip("unguided search is slow")
	}
	p := MustBuild(Config{Qualities: []Quality{Q2}, Guides: NoGuides})
	opts := mc.DefaultOptions(mc.DFS)
	opts.MaxStates = 3_000_000
	res, err := mc.Explore(p.Sys, p.Goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("unguided single batch unsolved: abort=%q %v", res.Abort, res.Stats)
	}
	if _, err := mc.Concretize(p.Sys, res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestCastOrderMatchesProductionList(t *testing.T) {
	p := MustBuild(Config{Qualities: CycleQualities(3), Guides: AllGuides})
	res, err := mc.Explore(p.Sys, p.Goal, mc.DefaultOptions(mc.DFS))
	if err != nil || !res.Found {
		t.Fatalf("explore: %v found=%v", err, res.Found)
	}
	steps, err := mc.Concretize(p.Sys, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, s := range steps {
		if cmd, ok := p.Command(s.Trans.A1, s.Trans.E1); ok && strings.HasPrefix(cmd.Action, "CastLoad") {
			order = append(order, cmd.Arg)
		}
	}
	if len(order) != 3 {
		t.Fatalf("cast %d batches, want 3", len(order))
	}
	for i, b := range order {
		if b != i {
			t.Errorf("cast order %v, want [0 1 2]", order)
			break
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	if MachineAtSlot(1, 1) != M1 || MachineAtSlot(1, 3) != M2 || MachineAtSlot(1, 5) != M3 {
		t.Error("track 1 machine layout wrong")
	}
	if MachineAtSlot(2, 1) != M4 || MachineAtSlot(2, 3) != M5 {
		t.Error("track 2 machine layout wrong")
	}
	if MachineAtSlot(1, 0) != 0 || MachineAtSlot(2, 5) != 0 {
		t.Error("non-machine slots must report 0")
	}
	for m := 1; m <= NumMach; m++ {
		if MachineAtSlot(MachineTrack(m), MachineSlot(m)) != m {
			t.Errorf("machine %d round-trip failed", m)
		}
	}
	if PointName(PtHold) != "Holding" || PointName(PtStore) != "Storage" {
		t.Error("point names wrong")
	}
	if !strings.Contains(Layout(), "continuous caster") {
		t.Error("layout rendering broken")
	}
}

func TestCycleQualities(t *testing.T) {
	qs := CycleQualities(5)
	want := []Quality{Q1, Q2, Q3, Q1, Q2}
	for i := range want {
		if qs[i] != want[i] {
			t.Fatalf("CycleQualities(5) = %v", qs)
		}
	}
	qs = CycleQualities(3, Q4)
	if qs[0] != Q4 || qs[2] != Q4 {
		t.Errorf("custom cycle wrong: %v", qs)
	}
}

func TestStagesPerQuality(t *testing.T) {
	pm := DefaultParams()
	tests := []struct {
		q    Quality
		len  int
		last int // a machine of the last stage
	}{
		{Q1, 2, M2}, {Q2, 1, M1}, {Q3, 1, M2}, {Q4, 3, M3}, {Q5, 2, M1},
	}
	for _, tc := range tests {
		st := pm.Stages(tc.q)
		if len(st) != tc.len {
			t.Errorf("%s: %d stages, want %d", qualityName(tc.q), len(st), tc.len)
		}
		found := false
		for _, m := range st[len(st)-1].Machines {
			if m == tc.last {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: last stage %v lacks machine %d", qualityName(tc.q), st[len(st)-1].Machines, tc.last)
		}
	}
}

func TestCommandRegistry(t *testing.T) {
	p := MustBuild(Config{Qualities: []Quality{Q1}, Guides: AllGuides})
	kinds := map[string]bool{}
	for _, a := range p.Sys.Automata {
		for ei := range a.Edges {
			ai := automatonIndex(p, a.Name)
			if cmd, ok := p.Command(ai, ei); ok {
				switch {
				case strings.HasPrefix(cmd.Action, "PourTrack"):
					kinds["pour"] = true
				case strings.HasPrefix(cmd.Action, "Track"):
					kinds["move"] = true
				case strings.HasPrefix(cmd.Action, "Machine"):
					kinds["machine"] = true
				case strings.HasPrefix(cmd.Action, "PickupAt"):
					kinds["pickup"] = true
				case strings.HasPrefix(cmd.Action, "PutdownAt"):
					kinds["putdown"] = true
				case strings.HasPrefix(cmd.Action, "Move"):
					kinds["cranemove"] = true
				case strings.HasPrefix(cmd.Action, "CastLoad"):
					kinds["cast"] = true
				case strings.HasPrefix(cmd.Action, "EjectLoad"):
					kinds["eject"] = true
				}
			}
		}
	}
	for _, want := range []string{"pour", "move", "machine", "pickup", "putdown", "cranemove", "cast", "eject"} {
		if !kinds[want] {
			t.Errorf("no %s commands registered", want)
		}
	}
}

func automatonIndex(p *Plant, name string) int {
	for i, a := range p.Sys.Automata {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func TestDefaultParamsApplied(t *testing.T) {
	p := MustBuild(Config{Qualities: []Quality{Q1}})
	if p.Cfg.Params != DefaultParams() {
		t.Error("zero Params should default")
	}
	if p.Cfg.Guides != NoGuides {
		t.Error("zero Guides should mean NoGuides")
	}
	if p.NumBatches() != 1 {
		t.Error("NumBatches wrong")
	}
	if p.GlobalClock <= 0 {
		t.Error("global clock not allocated")
	}
}

// TestTable1Shape pins the qualitative content of the paper's Table 1 at a
// fixed small instance: search effort separates by orders of magnitude
// across guide levels, and the unguided model exhausts a budget the guided
// one barely notices.
func TestTable1Shape(t *testing.T) {
	effort := func(g GuideLevel, cap int) (bool, int) {
		p := MustBuild(Config{Qualities: CycleQualities(2), Guides: g})
		opts := mc.DefaultOptions(mc.DFS)
		opts.MaxStates = cap
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		res, err := mc.Explore(p.Sys, p.Goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Found, res.Stats.StatesExplored
	}
	foundAll, nAll := effort(AllGuides, 100_000)
	foundSome, nSome := effort(SomeGuides, 100_000)
	foundNone, _ := effort(NoGuides, 100_000)
	if !foundAll || !foundSome {
		t.Fatalf("guided searches failed: all=%v some=%v", foundAll, foundSome)
	}
	if foundNone {
		t.Error("unguided 2-batch search should exhaust a 100k-state budget")
	}
	if !(nAll < nSome) {
		t.Errorf("effort ordering violated: all=%d some=%d", nAll, nSome)
	}
	if nSome*20 > 100_000 {
		t.Errorf("some-guides effort %d suspiciously close to the unguided budget", nSome)
	}
}

// TestBuildReservesExactly: each automaton's location and edge lists are
// reserved for exactly what its builder adds, and each edge gets its
// updates in one slice of their size, so building never regrows a list.
// It covers every quality, guide level and guide family, since those
// change the counts.
func TestBuildReservesExactly(t *testing.T) {
	var cfgs []Config
	lists := [][]Quality{CycleQualities(1), CycleQualities(3), CycleQualities(5), {Q4, Q5, Q1}, {Q4, Q4}}
	for _, qs := range lists {
		for _, g := range []GuideLevel{NoGuides, SomeGuides, AllGuides} {
			cfgs = append(cfgs, Config{Qualities: qs, Guides: g})
		}
		cfgs = append(cfgs, Config{Qualities: qs, Guides: AllGuides, PourLookahead: 2})
		for _, gs := range []GuideSet{
			{Route: true}, {Steer: true}, {Demand: true}, {Regions: true}, {BufferGate: true},
			{Balance: true}, {CastPace: true}, {PourOrder: true}, {PourWindow: 2},
		} {
			cfgs = append(cfgs, Config{Qualities: qs, GuideSet: &gs})
		}
	}
	for _, cfg := range cfgs {
		p := MustBuild(cfg)
		for _, a := range p.Sys.Automata {
			if cap(a.Locations) != len(a.Locations) || cap(a.Edges) != len(a.Edges) {
				t.Errorf("%s %s: %d of %d reserved locations, %d of %d reserved edges",
					p.Sys.Name, a.Name, len(a.Locations), cap(a.Locations), len(a.Edges), cap(a.Edges))
			}
			for ei, e := range a.Edges {
				if cap(e.Assigns) != len(e.Assigns) {
					t.Errorf("%s %s edge %d: %d updates in a slice of %d", p.Sys.Name, a.Name, ei, len(e.Assigns), cap(e.Assigns))
				}
			}
		}
	}
}
