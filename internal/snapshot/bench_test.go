package snapshot_test

import (
	"os"
	"path/filepath"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/snapshot"
)

// plantCheckpoint returns the abort-time checkpoint of the 3-batch
// all-guides DFS plant synthesis stopped at 274 explored states, one
// short of its goal: a whole passed store and frontier of about 31.7 KB,
// the file a drained or timed-out server job leaves and resumes from. (A
// kept-final checkpoint of the same run is just its 155-step witness
// path, 2 KB.)
func plantCheckpoint(b *testing.B) (string, []byte) {
	b.Helper()
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "plant.ckpt")
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	opts.MaxStates = 274
	opts.Checkpoint = mc.CheckpointOptions{Path: path}
	res, err := mc.Explore(p.Sys, p.Goal, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Abort != mc.AbortStates {
		b.Fatalf("plant run ended %q (found %v), want a state-limit abort", res.Abort, res.Found)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, data
}

// BenchmarkCheckpointCodec times each half of the checkpoint round trip on
// a whole-store plant checkpoint: Encode and Write on the save side,
// Decode and Load on the resume side. Run with -benchmem; the allocations
// are the point.
func BenchmarkCheckpointCodec(b *testing.B) {
	path, data := plantCheckpoint(b)
	cp, err := snapshot.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d-byte checkpoint, %d nodes", len(data), len(cp.Nodes))
	out := filepath.Join(b.TempDir(), "out.ckpt")
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := snapshot.Write(out, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
