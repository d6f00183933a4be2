// Tests of the Observer seam: per-state events must agree exactly with the
// returned Stats, snapshots must sample a live search and close with a
// final snapshot matching it, and Observers must compose a guiding
// observer with watching ones.
package mc_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// countingObserver tallies every event; counters are atomic so the same
// code serves sequential and parallel runs (parallel event delivery is
// serialized by the engine, but snapshots arrive from a sampler goroutine).
type countingObserver struct {
	visits atomic.Int64
	done   atomic.Int64
	last   mc.Result
}

func (c *countingObserver) observer() *mc.FuncObserver {
	return &mc.FuncObserver{
		OnVisit: func(mc.StateVisit) { c.visits.Add(1) },
		OnDone: func(r mc.Result) {
			c.done.Add(1)
			c.last = r
		},
	}
}

// TestObserverEventCounts: every explored state produces exactly one
// OnVisit, and OnDone fires once with the final Result — sequential and
// parallel, across store kinds.
func TestObserverEventCounts(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		compact bool
	}{
		{"seq", 1, false},
		{"seq-compact", 1, true},
		{"par-4", 4, false},
		{"par-4-compact", 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, goal := traingateModel(t, 3) // safe: exhaustive exploration
			var c countingObserver
			opts := mc.DefaultOptions(mc.BFS)
			opts.Workers = tc.workers
			opts.Compact = tc.compact
			opts.Observer = c.observer()
			res, err := mc.Explore(sys, goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				t.Fatal("traingate-safe should be unreachable")
			}
			if got, want := int(c.visits.Load()), res.Stats.StatesExplored; got != want {
				t.Errorf("OnVisit calls = %d, Stats.StatesExplored = %d", got, want)
			}
			if c.done.Load() != 1 {
				t.Errorf("Done called %d times, want exactly 1", c.done.Load())
			}
			if c.last.Stats.StatesExplored != res.Stats.StatesExplored {
				t.Errorf("Done saw StatesExplored=%d, returned Result has %d",
					c.last.Stats.StatesExplored, res.Stats.StatesExplored)
			}
		})
	}
}

// TestObserverSnapshots: with SnapshotEvery set the observer receives at
// least the closing snapshot, snapshots are monotone in explored states,
// and the final one agrees with the returned Stats.
func TestObserverSnapshots(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys, goal := fischerModel(t, 4, true) // safe: exhaustive
			var snaps []mc.Snapshot
			opts := mc.DefaultOptions(mc.BFS)
			opts.Workers = workers
			opts.SnapshotEvery = time.Millisecond
			opts.Observer = &mc.FuncObserver{
				OnSnapshot: func(s mc.Snapshot) { snaps = append(snaps, s) },
			}
			res, err := mc.Explore(sys, goal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no snapshots delivered")
			}
			last := snaps[len(snaps)-1]
			if !last.Final {
				t.Error("closing snapshot not marked Final")
			}
			for i, s := range snaps {
				if s.Final && i != len(snaps)-1 {
					t.Errorf("snapshot %d marked Final before the last", i)
				}
				if i > 0 && s.StatesExplored < snaps[i-1].StatesExplored {
					t.Errorf("snapshot %d explored count went backwards: %d -> %d",
						i, snaps[i-1].StatesExplored, s.StatesExplored)
				}
			}
			if last.StatesExplored != res.Stats.StatesExplored {
				t.Errorf("final snapshot explored=%d, Stats.StatesExplored=%d",
					last.StatesExplored, res.Stats.StatesExplored)
			}
			if last.PeakWaiting != res.Stats.PeakWaiting {
				t.Errorf("final snapshot peakWaiting=%d, Stats.PeakWaiting=%d",
					last.PeakWaiting, res.Stats.PeakWaiting)
			}
			if last.Elapsed <= 0 {
				t.Error("final snapshot has non-positive Elapsed")
			}
			if workers > 1 {
				if len(last.WorkerExplored) != workers {
					t.Fatalf("final snapshot WorkerExplored has %d entries, want %d",
						len(last.WorkerExplored), workers)
				}
				sum := 0
				for _, n := range last.WorkerExplored {
					sum += n
				}
				if sum != last.StatesExplored {
					t.Errorf("per-worker explored sums to %d, total is %d", sum, last.StatesExplored)
				}
			}
		})
	}
}

// TestObserversCompose: the fan-out delivers every event to every member
// and carries the first non-nil priority, so a guiding observer (the
// plant's heuristic) composes with a watching one.
func TestObserversCompose(t *testing.T) {
	var a, b countingObserver
	prio := func(tr mc.Transition) int { return -tr.A1 }
	guiding := &mc.FuncObserver{Priority: prio}
	combined := mc.Observers(nil,
		a.observer(),
		mc.Observers(nil, nil), // empty fan-out collapses to nil and is dropped
		guiding,
		b.observer(),
	)
	if combined.Priority == nil {
		t.Fatal("combined observer lost the member priority")
	}
	if guiding.OnVisit != nil || guiding.OnDone != nil {
		t.Fatal("composing modified a member")
	}
	sys, goal := chainModelLinear(t, 10)
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = combined
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*countingObserver{"a": &a, "b": &b} {
		if got, want := int(c.visits.Load()), res.Stats.StatesExplored; got != want {
			t.Errorf("member %s saw %d visits, want %d", name, got, want)
		}
		if c.done.Load() != 1 {
			t.Errorf("member %s: Done called %d times", name, c.done.Load())
		}
	}
	if mc.Observers() != nil {
		t.Error("empty Observers() should be nil")
	}
	single := a.observer()
	if mc.Observers(nil, single) != single {
		t.Error("single-member fan-out should unwrap to the member itself")
	}
}

// chainModelLinear builds a pure chain c0 -> c1 -> ... -> cN where every
// state has exactly one successor, so the waiting list can never hold more
// than two states at once no matter how it is scheduled. The goal is a
// disconnected pit location, forcing exhaustive exploration.
func chainModelLinear(t testing.TB, n int) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("chain")
	s.AddClock("x")
	a := s.AddAutomaton("C")
	prev := a.AddLocation("c0", ta.Normal)
	a.SetInit(prev)
	for i := 1; i <= n; i++ {
		cur := a.AddLocation(fmt.Sprintf("c%d", i), ta.Normal)
		a.Edge(prev, cur).Done()
		prev = cur
	}
	pit := a.AddLocation("pit", ta.Normal)
	return s, mc.Goal{Desc: "unreachable pit", Locs: []mc.LocRequirement{{Automaton: 0, Location: pit}}}
}

// TestPeakWaitingParallelGlobal is the regression test for the parallel
// PeakWaiting aggregation bug: summing each worker's local deque peak
// reported ~Workers for a linear chain whose true global frontier never
// exceeds one state (briefly two around a handoff). The shared watermark
// must report the true global peak.
func TestPeakWaitingParallelGlobal(t *testing.T) {
	sys, goal := chainModelLinear(t, 4000)
	opts := mc.DefaultOptions(mc.BFS)
	opts.Workers = 8
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("pit must be unreachable")
	}
	if res.Stats.StatesExplored != 4001 {
		t.Fatalf("explored %d states, want 4001", res.Stats.StatesExplored)
	}
	if res.Stats.PeakWaiting < 1 || res.Stats.PeakWaiting > 2 {
		t.Errorf("PeakWaiting = %d on a linear chain, want the true global peak (1 or 2)",
			res.Stats.PeakWaiting)
	}
}
