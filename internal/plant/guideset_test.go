package plant

import (
	"testing"

	"guidedta/internal/tadsl"
)

func TestParseGuideLevel(t *testing.T) {
	cases := []struct {
		in   string
		want GuideLevel
		ok   bool
	}{
		{"none", NoGuides, true},
		{"some", SomeGuides, true},
		{"all", AllGuides, true},
		{"All", AllGuides, true},
		{"NONE", NoGuides, true},
		{"", 0, false},
		{"most", 0, false},
	}
	for _, c := range cases {
		got, err := ParseGuideLevel(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseGuideLevel(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseGuideLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGuideLevelTextRoundTrip(t *testing.T) {
	for _, lvl := range []GuideLevel{NoGuides, SomeGuides, AllGuides} {
		text, err := lvl.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", lvl, err)
		}
		var back GuideLevel
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: UnmarshalText(%q): %v", lvl, text, err)
		}
		if back != lvl {
			t.Errorf("round trip %v -> %q -> %v", lvl, text, back)
		}
		// flag.Value agrees with the text forms.
		var fv GuideLevel
		if err := fv.Set(string(text)); err != nil || fv != lvl {
			t.Errorf("Set(%q) = %v, %v; want %v", text, fv, err, lvl)
		}
	}
}

func TestGuideLevelGuideSets(t *testing.T) {
	if !NoGuides.GuideSet(0).Empty() {
		t.Error("NoGuides guide set not empty")
	}
	some := SomeGuides.GuideSet(0)
	if !some.Route || !some.Steer || !some.Demand || !some.Regions || !some.BufferGate || !some.Balance {
		t.Errorf("SomeGuides missing a some-level family: %+v", some)
	}
	if some.CastPace || some.PourOrder || some.PourWindow != 0 {
		t.Errorf("SomeGuides enables all-level families: %+v", some)
	}
	all := AllGuides.GuideSet(0)
	if !all.CastPace || !all.PourOrder || all.PourWindow != 4 {
		t.Errorf("AllGuides = %+v, want cast pacing, pour order, default window 4", all)
	}
	if got := AllGuides.GuideSet(7).PourWindow; got != 7 {
		t.Errorf("AllGuides.GuideSet(7).PourWindow = %d, want 7", got)
	}
	if got, want := all.String(), "route+steer+demand+regions+buffergate+balance+castpace+pourorder+window=4"; got != want {
		t.Errorf("AllGuides set label = %q, want %q", got, want)
	}
	if got := (GuideSet{}).String(); got != "none" {
		t.Errorf("empty set label = %q, want none", got)
	}
}

// TestPresetHashesUnchanged pins the canonical model hash of every preset
// guide level at 1..3 batches: the per-family GuideSet decomposition must
// reproduce the original hand-written models byte for byte, so all
// published effort numbers (Table 1, benchmarks, cached serve results)
// stay comparable. A change here means the builder's output changed —
// deliberate model edits must update the pins and re-baseline the tables.
func TestPresetHashesUnchanged(t *testing.T) {
	want := map[GuideLevel][3]string{
		NoGuides: {
			"bff589acc28c0cdd47610a6636ef7424ab56b9279a20cd2dcc18e55e746dd58f",
			"8ff30257b92469bee152b97cbd0d6f116349aa1eb287602556c802bf18ad23d9",
			"19e96bfb82731f7f6b12c7b4fc42aedf0ac479491e0f1652246325375f72dfbe",
		},
		SomeGuides: {
			"5a0540b4fdaa2fa63ea46f5dda21df9561f956f1df708cbd87830081a8d1542d",
			"285ca475c4ccc81457f0c549353ac1f52b788bad47b65e631d123bb786c4c31e",
			"f6703b3763c0dd5a4d46914688c0102f7d42ae9eec440c361fca4f520024cf35",
		},
		AllGuides: {
			"be17a386b721e8933a83feed265a73ed35e87fb45988030aba605b9371207db0",
			"de500af585396ddd1d2f0c65fbf215e2b3a72e4994c90ce914185da8f4025337",
			"8a640d7be0e7ef0c529dcd1a17ab775c663653331e3d6fd40cb63012b536f06a",
		},
	}
	for lvl, hashes := range want {
		for n := 1; n <= 3; n++ {
			p := MustBuild(Config{Qualities: CycleQualities(n), Guides: lvl})
			got, err := tadsl.Hash(p.Sys, &p.Goal)
			if err != nil {
				t.Fatalf("%v n=%d: %v", lvl, n, err)
			}
			if got != hashes[n-1] {
				t.Errorf("%v n=%d: model hash %s, want %s", lvl, n, got, hashes[n-1])
			}
		}
	}
}

// TestGuideSetOverridesLevel: an explicit GuideSet wins over the level and
// labels the system by its families.
func TestGuideSetOverridesLevel(t *testing.T) {
	gs := GuideSet{Route: true, PourOrder: true}
	p := MustBuild(Config{Qualities: CycleQualities(1), Guides: AllGuides, GuideSet: &gs})
	if want := "sidmar-1-route+pourorder"; p.Sys.Name != want {
		t.Errorf("system name = %q, want %q", p.Sys.Name, want)
	}
	// The preset-equivalent set builds the same structure as the level
	// (the system label differs — it names the families — so sizes and
	// edge counts stand in for byte identity, which the preset-hash pins
	// above cover for the levels themselves).
	all := AllGuides.GuideSet(0)
	viaSet := MustBuild(Config{Qualities: CycleQualities(2), GuideSet: &all})
	viaLevel := MustBuild(Config{Qualities: CycleQualities(2), Guides: AllGuides})
	if gotStats, wantStats := viaSet.Sys.Stats(), viaLevel.Sys.Stats(); gotStats != wantStats {
		t.Errorf("AllGuides.GuideSet build stats %v differ from the AllGuides level build %v",
			gotStats, wantStats)
	}
}

// TestBuilderHashesPinned extends the preset pins to the builder paths the
// presets at default params never reach: the 5-batch plant, a production
// list with Q4 (the m3 stage and the single-machine machine choice) and Q5
// (the reversed stage order), every guide family on its own, a non-default
// pour window, and a params drift for the guided and the unguided plant
// (the unguided hash is the serving layer's instance identity). The pins
// were taken from the builder that formatted and parsed source strings;
// they prove the tree-building builder emits the same model byte for byte.
func TestBuilderHashesPinned(t *testing.T) {
	all := func(n int) Config { return Config{Qualities: CycleQualities(n), Guides: AllGuides} }
	family := func(n int, gs GuideSet) Config { return Config{Qualities: CycleQualities(n), GuideSet: &gs} }
	drift := DefaultParams()
	drift.TreatA, drift.TreatB, drift.Deadline = 5, 8, 60
	mixed := []Quality{Q4, Q5, Q1}

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"all-5", all(5), "6780ab7f7b8cf4dfb737907b17f72ce4308fbcb61012b78519851baddeb68279"},
		{"all-q4q5", Config{Qualities: mixed, Guides: AllGuides}, "c9853cdd2f72a9676c84d94a72c8e0324f12f5da8f87c9a1c9946a6d202d642c"},
		{"some-q4q5", Config{Qualities: mixed, Guides: SomeGuides}, "ef45b193f79dcf2f5ea18f40a933f47c426c006294f1e8894711eced2cbb172f"},
		{"none-q4q5", Config{Qualities: mixed, Guides: NoGuides}, "1d49ad970f670991922f06c7489daa45c1a19bc751095d961db17055211b1ba6"},
		{"route-2", family(2, GuideSet{Route: true}), "45a1e617af5fc302c976a30a40dbb1d61f137e955ab15f6217e27d8db32d23b1"},
		{"route-3", family(3, GuideSet{Route: true}), "7087fffc37ffa1ebb371d0fe4bafb1074015e39e1bbd58e46ba384cd944c6a4e"},
		{"steer-2", family(2, GuideSet{Steer: true}), "d065a0bef7491b1588fa42899e9efd3d9ae8291d74dec55e31307ac5b4e9f8c7"},
		{"steer-3", family(3, GuideSet{Steer: true}), "2c4ebf07c6e875f68af7042a8a55c01f511046b080b1e7ebc0ef7e65f0ad624a"},
		{"demand-2", family(2, GuideSet{Demand: true}), "49bfecb07da5c1562d645a62b964d5b15b92b43a35f811e9fa6fc419944a4112"},
		{"demand-3", family(3, GuideSet{Demand: true}), "79a2daa1fd42780c6b70f05ec1b07a6bc127f4efcc7b6c0f231a0bfe00eb11e3"},
		{"regions-2", family(2, GuideSet{Regions: true}), "65e6b545bcd46e6c4864d8d3deda83274a8892878b10bd1f259df056812d4e5d"},
		{"regions-3", family(3, GuideSet{Regions: true}), "76a0786de5dfd2826f3b4af3acfcfb3a1f07571cf7820acc61a42efcf71d6e85"},
		{"buffergate-2", family(2, GuideSet{BufferGate: true}), "3d820587904c6795d200392d50b8fdd5870d8e388add9465ba6d8a970882990f"},
		{"buffergate-3", family(3, GuideSet{BufferGate: true}), "b1c1068227b7fcbc9688641afb2308002c47ad9b23a9a0a2b4e4943c622df77c"},
		{"balance-2", family(2, GuideSet{Balance: true}), "f252bdc228d4c85ea7b83327c230115fefd42a881c371f9643abaf9e56593532"},
		{"balance-3", family(3, GuideSet{Balance: true}), "2d35abb3dec09ce6c98bc776aafbd7776dd54229e85523d04eb66e5832b7cdd9"},
		{"castpace-2", family(2, GuideSet{CastPace: true}), "ce75a6a5185113d7f4210aca4398e387644ba7d6fbdf6b1d913581d90bacb16e"},
		{"castpace-3", family(3, GuideSet{CastPace: true}), "d21ec8cbeb9fb4a90aadc72fb48222b82bea93d94a31fdca03ed1f8210374bf0"},
		{"pourorder-2", family(2, GuideSet{PourOrder: true}), "133a29731b86493c20474e73a974acfbda03a016849f63c3c99f46e852ae9234"},
		{"pourorder-3", family(3, GuideSet{PourOrder: true}), "f7ebc85c204f4c371b776f5b888721c98717f4e9b0e3c2c6e6469c5d12a16708"},
		{"window2-2", family(2, GuideSet{PourWindow: 2}), "017041a8a62e6a54415d9158556249008c372ce36264ecbaa6c4b4139d7e3d74"},
		{"window2-3", family(3, GuideSet{PourWindow: 2}), "187163b98f7f983eec421424738cdc1a96a511b935d53ace35164d3efd2dd325"},
		{"all-lookahead2-3", Config{Qualities: CycleQualities(3), Guides: AllGuides, PourLookahead: 2}, "bff921dea16480f8d12313ce22f240fcf60bc9bdc2c385f1a2225d206bc9477a"},
		{"all-drift-3", Config{Qualities: CycleQualities(3), Guides: AllGuides, Params: drift}, "af6de3ae3309629fa0d2c50c7244fb92dfeac49bcdc55c05cb6606fb99f9bb88"},
		{"none-drift-3", Config{Qualities: CycleQualities(3), Guides: NoGuides, Params: drift}, "4ddade536fbe4a96269d1c8b3873999f3d7dd613df4778cf7a739b4a50adc055"},
	}
	for _, c := range cases {
		p := MustBuild(c.cfg)
		got, err := tadsl.Hash(p.Sys, &p.Goal)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: model hash %s, want %s", c.name, got, c.want)
		}
	}
}
