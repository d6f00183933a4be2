package mc

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"guidedta/internal/ta"
)

// liveSearch runs a sequential search the way explore's prologue starts
// one — resumed from opts.Checkpoint when it asks for a resume, otherwise
// from the initial state — and returns the loop still holding its store
// and frontier.
func liveSearch(t *testing.T, sys *ta.System, goal Goal, opts Options) *seqSearch {
	t.Helper()
	opts, err := opts.normalize()
	if err != nil {
		t.Fatal(err)
	}
	en, err := newEngine(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := newSeqSearch(en, goal)
	c := q.w0.c
	if opts.Checkpoint.Resume {
		ck, err := newCheckpointer(&en.opts)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ck.resume(q.store)
		if err != nil || rs == nil {
			t.Fatalf("resume: %v (resumed state %v)", err, rs)
		}
		q.restore(rs)
	} else {
		init, err := c.initial()
		if err != nil {
			t.Fatal(err)
		}
		c.offer(q.store, c.stateKey(init), init)
		q.queue([]*node{init})
	}
	if _, _, err := q.run(); err != nil {
		t.Fatal(err)
	}
	return q
}

// timedFischer is fischerN with a never-reset global clock, so BestTime
// can order it.
func timedFischer(t *testing.T, n int) (*ta.System, Goal, Options) {
	sys, goal := fischerN(t, n, false)
	opts := DefaultOptions(BestTime)
	opts.TimeClock = sys.AddClock("gt")
	opts.TimeHorizon = 40
	return sys, goal, opts
}

// TestCaptureStateMatchesReference holds the two-pass captureState to the
// append-as-you-go reference on live searches: both stores, every
// sequential order, a found goal with a live frontier, a state-limit
// abort, an exhaustive search, and the end state of a search resumed from
// a state-limit checkpoint, whose restored nodes carry discrete parts
// carved from the decoder's shared arrays.
func TestCaptureStateMatchesReference(t *testing.T) {
	type tc struct {
		name string
		sys  *ta.System
		goal Goal
		opts Options
	}
	var cases []tc
	for _, compact := range []bool{false, true} {
		suffix := map[bool]string{false: "/full", true: "/compact"}[compact]
		add := func(name string, sys *ta.System, goal Goal, opts Options) {
			opts.Compact = compact
			cases = append(cases, tc{name + suffix, sys, goal, opts})
		}
		for name, order := range map[string]SearchOrder{"dfs": DFS, "bfs": BFS} {
			sys, goal := fischerN(t, 4, false)
			add(name+"-found", sys, goal, DefaultOptions(order))
		}
		sys, goal, opts := timedFischer(t, 3)
		add("besttime-found", sys, goal, opts)
		sys, goal = fischerN(t, 4, true)
		opts = DefaultOptions(BFS)
		opts.MaxStates = 60
		add("bfs-state-limit", sys, goal, opts)
		sys, goal = fischerN(t, 3, true)
		add("bfs-exhaustive", sys, goal, DefaultOptions(BFS))
		sys, goal = fischerN(t, 4, true)
		opts = DefaultOptions(BFS)
		opts.Compact = compact // the checkpoint's options must match the resume's
		opts.MaxStates = 60
		opts.Checkpoint = CheckpointOptions{Path: filepath.Join(t.TempDir(), "limit.ckpt")}
		if res, err := Explore(sys, goal, opts); err != nil || res.Abort != AbortStates {
			t.Fatalf("state-limit run: abort %q, err %v", res.Abort, err)
		}
		sys, goal = fischerN(t, 4, true)
		opts.MaxStates = 0
		opts.Checkpoint.Resume = true
		add("bfs-resumed", sys, goal, opts)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := liveSearch(t, c.sys, c.goal, c.opts)
			front, prios := q.front.state()
			st := q.w0.counters.snapshot()
			cs := q.store.(localStore)
			got, err := captureState(cs.forEachNode, cs.stats().count, front, prios, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := captureStateRef(q.store, front, prios, st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("captureState differs from the reference capture")
			}
			gotB, err := got.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotB, wantB) {
				t.Fatal("captured checkpoints encode differently")
			}
			if len(got.Nodes) == 0 || len(got.Store) == 0 {
				t.Fatal("captured an empty search")
			}
			t.Logf("%d nodes, %d stored, %d waiting, %d bytes", len(got.Nodes), len(got.Store), len(got.Frontier), len(gotB))
		})
	}
}
