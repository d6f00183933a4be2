// Checkpoint/resume tests: a search killed mid-exploration and resumed
// from its checkpoint must reach the same verdict as an uninterrupted run
// — with a bit-identical witness trace and effort counters for the
// sequential engine, verdict agreement for the parallel one — across both
// store kinds and all three checkpointable search orders. Cancellation is
// triggered from an observer after a fixed number of visits (see
// cancel_test.go), so the abort point is deterministic, not
// timing-dependent.
package mc_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/snapshot"
	"guidedta/internal/ta"
)

// ckptModel picks the matrix model per order: the broken Fischer instance
// (goal reachable, non-trivial search) for BFS/DFS, the job-shop for
// BestTime (it needs a time clock).
func ckptModel(t testing.TB, order mc.SearchOrder) (*ta.System, mc.Goal, mc.Options) {
	t.Helper()
	if order == mc.BestTime {
		sys, goal := jobshopModel(t)
		opts := mc.DefaultOptions(mc.BestTime)
		opts.TimeClock = 1
		opts.TimeHorizon = 64
		return sys, goal, opts
	}
	sys, goal := fischerModel(t, 4, false)
	return sys, goal, mc.DefaultOptions(order)
}

// TestCheckpointResumeBitIdentical kills a sequential search roughly
// halfway (the abort writes the checkpoint) and resumes it: verdict,
// witness trace, and cumulative explored count must equal the
// uninterrupted reference exactly, for both stores and all orders.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS, mc.BestTime} {
		for _, compact := range []bool{false, true} {
			name := order.String()
			if compact {
				name += "-compact"
			}
			t.Run(name, func(t *testing.T) {
				sys, goal, opts := ckptModel(t, order)
				opts.Compact = compact
				ref, err := mc.Explore(sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Stats.StatesExplored < 20 {
					t.Fatalf("reference explored only %d states; model too small to interrupt", ref.Stats.StatesExplored)
				}

				path := filepath.Join(t.TempDir(), "run.ckpt")
				sys, goal, opts = ckptModel(t, order)
				opts.Compact = compact
				opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				obs, _ := cancelAfter(int64(ref.Stats.StatesExplored/2), cancel)
				opts.Observer = obs
				res1, err := mc.ExploreContext(ctx, sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res1.Abort != mc.AbortCanceled {
					t.Fatalf("interrupted run aborted %q, want canceled", res1.Abort)
				}
				if res1.Stats.CheckpointWrites < 1 {
					t.Fatalf("abort wrote %d checkpoints, want >= 1", res1.Stats.CheckpointWrites)
				}
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("checkpoint file after abort: %v", err)
				}

				sys, goal, opts = ckptModel(t, order)
				opts.Compact = compact
				opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
				res2, err := mc.Explore(sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res2.Resumed {
					t.Fatal("second run did not resume from the checkpoint")
				}
				if res2.Found != ref.Found {
					t.Fatalf("resumed verdict %v, reference %v", res2.Found, ref.Found)
				}
				if !reflect.DeepEqual(res2.Trace, ref.Trace) {
					t.Fatalf("resumed trace differs from reference (%d vs %d transitions)",
						len(res2.Trace), len(ref.Trace))
				}
				if res2.Stats.StatesExplored != ref.Stats.StatesExplored {
					t.Fatalf("resumed run explored %d states cumulatively, reference %d",
						res2.Stats.StatesExplored, ref.Stats.StatesExplored)
				}
				if res2.Stats.ResumeTime <= 0 {
					t.Fatal("resumed run reports no ResumeTime")
				}
				// A completed answer deletes its checkpoint — a later run
				// must not resurrect finished state.
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("checkpoint not removed after completion: %v", err)
				}
				if order == mc.DFS {
					resumeAfterStateLimit(t, ref, path, compact)
				}
			})
		}
	}
}

// resumeAfterStateLimit aborts the DFS run of the checkpoint matrix at half
// the reference's explored states. The stack's top is the last successor
// pushed, which keeps its matrix until it is popped: the checkpoint must
// still write it in the store's zone form, and the run resumed from it
// must end exactly as the uninterrupted reference.
func resumeAfterStateLimit(t *testing.T, ref mc.Result, path string, compact bool) {
	t.Helper()
	sys, goal, opts := ckptModel(t, mc.DFS)
	opts.Compact = compact
	opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
	opts.MaxStates = ref.Stats.StatesExplored / 2
	res1, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Abort != mc.AbortStates {
		t.Fatalf("limited run aborted %q, want %q", res1.Abort, mc.AbortStates)
	}
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Frontier) == 0 {
		t.Fatal("state-limit checkpoint has an empty frontier")
	}
	want := snapshot.ZoneFull
	if compact {
		want = snapshot.ZoneCompact
	}
	if top := cp.Nodes[cp.Frontier[len(cp.Frontier)-1].Node]; !top.HasState || top.Zone.Kind != want {
		t.Fatalf("frontier top written with state %v, zone kind %d; want kind %d", top.HasState, top.Zone.Kind, want)
	}

	sys, goal, opts = ckptModel(t, mc.DFS)
	opts.Compact = compact
	opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
	res2, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Found != ref.Found || !reflect.DeepEqual(res2.Trace, ref.Trace) {
		t.Fatalf("resumed %v: found=%v with %d transitions, reference found=%v with %d",
			res2.Resumed, res2.Found, len(res2.Trace), ref.Found, len(ref.Trace))
	}
	got := [3]int64{int64(res2.Stats.StatesExplored), int64(res2.Stats.StatesStored), res2.Stats.Evictions}
	want3 := [3]int64{int64(ref.Stats.StatesExplored), int64(ref.Stats.StatesStored), ref.Stats.Evictions}
	if got != want3 {
		t.Fatalf("resumed explored/stored/evictions %v, reference %v", got, want3)
	}
}

// TestCheckpointParallelResume does the same interrupt/resume cycle with
// four workers; the parallel engine promises verdict agreement (traces
// and per-worker counters are scheduling-dependent). The search is
// exhaustive, so it also ends with the reference's antichain: an abort
// must leave every stored node either expanded or on a saved deque, or
// the resumed run never generates the lost node's successors.
func TestCheckpointParallelResume(t *testing.T) {
	for _, compact := range []bool{false, true} {
		for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
			name := order.String()
			if compact {
				name += "-compact"
			}
			t.Run(name, func(t *testing.T) {
				// The safe instance: exhaustive, thousands of states, so the
				// cancel at 300 visits always lands mid-search instead of
				// racing the goal.
				sys, goal := fischerModel(t, 5, true)
				opts := mc.DefaultOptions(order)
				opts.Workers = 4
				opts.Compact = compact
				ref, err := mc.Explore(sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}

				path := filepath.Join(t.TempDir(), "par.ckpt")
				sys, goal = fischerModel(t, 5, true)
				opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				obs, _ := cancelAfter(300, cancel)
				opts.Observer = obs
				res1, err := mc.ExploreContext(ctx, sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res1.Abort != mc.AbortCanceled {
					t.Fatalf("interrupted run aborted %q, want canceled", res1.Abort)
				}

				sys, goal = fischerModel(t, 5, true)
				opts.Observer = nil
				res2, err := mc.Explore(sys, goal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res2.Resumed {
					t.Fatal("second run did not resume from the checkpoint")
				}
				if res2.Found != ref.Found {
					t.Fatalf("resumed verdict %v, reference %v", res2.Found, ref.Found)
				}
				if res2.Stats.StatesStored != ref.Stats.StatesStored || res2.Stats.DiscreteStates != ref.Stats.DiscreteStates {
					t.Fatalf("resumed run stored %d states (%d discrete), reference %d (%d)",
						res2.Stats.StatesStored, res2.Stats.DiscreteStates, ref.Stats.StatesStored, ref.Stats.DiscreteStates)
				}
				if res2.Stats.StatesExplored < res1.Stats.StatesExplored {
					t.Fatalf("cumulative explored went backwards: %d after resume, %d at abort",
						res2.Stats.StatesExplored, res1.Stats.StatesExplored)
				}
			})
		}
	}
}

// TestCheckpointResumeAfterStateLimit: a checkpoint left by a MaxStates
// abort resumes with the limit lifted — the limits are not part of the
// resume identity — and the resumed run ends exactly as an uninterrupted
// one: verdict, trace, and the explored, stored and eviction counters. The
// safe Fischer-5 instance is exhaustive and evicts; the broken one ends
// with a witness.
func TestCheckpointResumeAfterStateLimit(t *testing.T) {
	for _, safe := range []bool{true, false} {
		sys, goal := fischerModel(t, 5, safe)
		opts := mc.DefaultOptions(mc.BFS)
		ref, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Found == safe || ref.Stats.StatesExplored < 20 {
			t.Fatalf("safe=%v: reference found=%v after %d states", safe, ref.Found, ref.Stats.StatesExplored)
		}

		path := filepath.Join(t.TempDir(), "limit.ckpt")
		sys, goal = fischerModel(t, 5, safe)
		opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
		opts.MaxStates = ref.Stats.StatesExplored / 2
		res1, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Abort != mc.AbortStates {
			t.Fatalf("safe=%v: limited run aborted %q, want %q", safe, res1.Abort, mc.AbortStates)
		}

		sys, goal = fischerModel(t, 5, safe)
		opts.MaxStates = 0
		res2, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatalf("safe=%v: resume without the limit: %v", safe, err)
		}
		if !res2.Resumed {
			t.Fatalf("safe=%v: second run did not resume from the checkpoint", safe)
		}
		if res2.Found != ref.Found || !reflect.DeepEqual(res2.Trace, ref.Trace) {
			t.Fatalf("safe=%v: resumed found=%v with %d transitions, reference found=%v with %d",
				safe, res2.Found, len(res2.Trace), ref.Found, len(ref.Trace))
		}
		got := [3]int64{int64(res2.Stats.StatesExplored), int64(res2.Stats.StatesStored), res2.Stats.Evictions}
		want := [3]int64{int64(ref.Stats.StatesExplored), int64(ref.Stats.StatesStored), ref.Stats.Evictions}
		if got != want {
			t.Fatalf("safe=%v: resumed explored/stored/evictions %v, reference %v", safe, got, want)
		}
	}
}

// TestCheckpointPeriodicInterval runs an exhaustive search with a short
// checkpoint cadence: ticked writes must not perturb the result, and the
// completed run must clean its file up.
func TestCheckpointPeriodicInterval(t *testing.T) {
	sys, goal := fischerModel(t, 4, true)
	opts := mc.DefaultOptions(mc.BFS)
	ref, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tick.ckpt")
	sys, goal = fischerModel(t, 4, true)
	opts.Checkpoint = mc.CheckpointOptions{Path: path, Interval: time.Millisecond}
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != ref.Found || res.Stats.StatesExplored != ref.Stats.StatesExplored {
		t.Fatalf("checkpointed run diverged: found=%v/%v explored=%d/%d",
			res.Found, ref.Found, res.Stats.StatesExplored, ref.Stats.StatesExplored)
	}
	if res.Resumed {
		t.Fatal("run resumed without Resume set")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}
}

// interruptedCheckpoint produces a checkpoint file by canceling a DFS run
// midway, returning the path and the options it ran with.
func interruptedCheckpoint(t *testing.T, modelSHA string) (string, mc.Options) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	sys, goal := fischerModel(t, 4, false)
	opts := mc.DefaultOptions(mc.DFS)
	opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true, ModelSHA: modelSHA}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs, _ := cancelAfter(50, cancel)
	opts.Observer = obs
	res, err := mc.ExploreContext(ctx, sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != mc.AbortCanceled {
		t.Fatalf("seeding run aborted %q, want canceled", res.Abort)
	}
	opts.Observer = nil
	return path, opts
}

// TestCheckpointResumeRejections: resuming under different options, a
// different model digest, or from a damaged file must fail with
// mc.ErrResume — never silently start a mismatched search.
func TestCheckpointResumeRejections(t *testing.T) {
	t.Run("options-mismatch", func(t *testing.T) {
		path, _ := interruptedCheckpoint(t, "")
		sys, goal := fischerModel(t, 4, false)
		opts := mc.DefaultOptions(mc.BFS) // checkpoint was DFS
		opts.Checkpoint = mc.CheckpointOptions{Path: path, Resume: true}
		if _, err := mc.Explore(sys, goal, opts); !errors.Is(err, mc.ErrResume) {
			t.Fatalf("got %v, want ErrResume", err)
		}
	})
	t.Run("model-mismatch", func(t *testing.T) {
		_, opts := interruptedCheckpoint(t, "sha-of-model-a")
		sys, goal := fischerModel(t, 4, false)
		opts.Checkpoint.ModelSHA = "sha-of-model-b"
		if _, err := mc.Explore(sys, goal, opts); !errors.Is(err, mc.ErrResume) {
			t.Fatalf("got %v, want ErrResume", err)
		}
	})
	t.Run("corrupt-file", func(t *testing.T) {
		path, opts := interruptedCheckpoint(t, "")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		sys, goal := fischerModel(t, 4, false)
		if _, err := mc.Explore(sys, goal, opts); !errors.Is(err, mc.ErrResume) {
			t.Fatalf("got %v, want ErrResume", err)
		}
	})
	t.Run("resume-disabled-ignores-file", func(t *testing.T) {
		path, opts := interruptedCheckpoint(t, "")
		sys, goal := fischerModel(t, 4, false)
		opts.Checkpoint.Resume = false
		res, err := mc.Explore(sys, goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resumed {
			t.Fatal("run resumed with Resume disabled")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("completed run left the checkpoint behind: %v", err)
		}
	})
	t.Run("bsh-rejected", func(t *testing.T) {
		sys, goal := fischerModel(t, 3, true)
		opts := mc.DefaultOptions(mc.BSH)
		opts.Checkpoint = mc.CheckpointOptions{Path: filepath.Join(t.TempDir(), "x.ckpt")}
		if _, err := mc.Explore(sys, goal, opts); err == nil {
			t.Fatal("BSH with a checkpoint validated; the bit table cannot checkpoint")
		}
	})
}
