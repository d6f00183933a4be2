package mc_test

import (
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/tadsl"
)

// invariantKindsSrc mixes every invariant shape the engine splits for the
// batched zone kernels: upper bounds on several clocks in one location,
// diagonal invariants (x - y <= 3, y - z < 2) next to them, a committed
// location and an urgent channel (both forbid delay, so the delay kernel
// is skipped there). The query is unreachable, so both searches are
// exhaustive and their counts depend only on the zones they compute.
const invariantKindsSrc = `system invkinds

int n 0
clock x y z w
chan go
urgent chan now

automaton A {
    init loc idle { inv x <= 4 }
    loc busy { inv x - y <= 3 && x <= 9 && w <= 12 }
    committed loc hop
    idle -> busy { guard x >= 1; sync go!; do y := 0 }
    busy -> hop { guard x >= 2 && n < 4; do n := n + 1 }
    hop -> idle { do x := 0 }
    busy -> idle { guard y > 1 && w >= 6; do w := 0 }
}

automaton B {
    init loc wait { inv w <= 15 }
    loc run { inv z <= 5 && y - z < 2 }
    wait -> run { sync go?; do z := 0 }
    run -> wait { guard z >= 1 }
    run -> run { guard z >= 1 && n < 3; do z := 0 }
    wait -> wait { guard w >= 15; do w := 0 }
    wait -> wait { sync now? }
}

automaton C {
    init loc c0
    loc c1 { inv z <= 7 }
    c0 -> c1 { guard n == 2; sync now! }
    c1 -> c0 { guard n == 4 && z >= 2 }
}

query exists A.busy && n == 9
`

// The counts are pinned to those of the per-constraint invariant loop and
// the plain Up the batched kernels replaced: any zone the kernels compute
// differently changes what inclusion prunes, and with it these numbers.
func TestInvariantKindsCountsPinned(t *testing.T) {
	m, err := tadsl.Parse(invariantKindsSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		search                        mc.SearchOrder
		explored, stored, transitions int
		evictions                     int64
	}{
		{mc.BFS, 378, 274, 615, 115},
		{mc.DFS, 711, 274, 1175, 437},
	}
	for _, tc := range cases {
		for _, compact := range []bool{true, false} {
			opts := mc.DefaultOptions(tc.search)
			opts.Compact = compact
			r, err := mc.Explore(m.Sys, m.Query, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats
			if r.Found || st.StatesExplored != tc.explored || st.StatesStored != tc.stored ||
				st.Transitions != tc.transitions || st.Evictions != tc.evictions {
				t.Errorf("%v compact=%v: found=%v explored=%d stored=%d transitions=%d evictions=%d, want false %d %d %d %d",
					tc.search, compact, r.Found, st.StatesExplored, st.StatesStored, st.Transitions, st.Evictions,
					tc.explored, tc.stored, tc.transitions, tc.evictions)
			}
		}
	}
}
