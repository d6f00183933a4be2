package mc_test

import (
	"path/filepath"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// BenchmarkWarmKeepFinal is re-synthesis of a plant whose treatment times
// drifted: a DFS search of the 3-batch all-guides plant, warm-started
// from a kept-final checkpoint, keeping its own final checkpoint. It
// covers the whole round trip — Load, witness replay, capture and Write;
// a drift whose seed witness stopped replaying would search cold, and the
// benchmark fails on it. "step" warm-starts every iteration from the
// nominal plant's snapshot; "chain" warm-starts each iteration from the
// previous iteration's own kept snapshot, as a warm-start server does
// from its newest, with the plant alternating between two drifts.
func BenchmarkWarmKeepFinal(b *testing.B) {
	build := func(b *testing.B, treatA, treatB int32) *plant.Plant {
		pm := plant.DefaultParams()
		pm.TreatA, pm.TreatB = treatA, treatB
		p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides, Params: pm})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	run := func(b *testing.B, p *plant.Plant, ck mc.CheckpointOptions, warm string) mc.Result {
		opts := mc.DefaultOptions(mc.DFS)
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		opts.Checkpoint = ck
		opts.WarmStart = mc.WarmStartOptions{Path: warm}
		res, err := mc.Explore(p.Sys, p.Goal, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no schedule")
		}
		return res
	}
	dir := b.TempDir()
	seed := filepath.Join(dir, "seed.ckpt")
	run(b, build(b, 4, 6), mc.CheckpointOptions{Path: seed, KeepFinal: true}, "")

	b.Run("step", func(b *testing.B) {
		drifted := build(b, 5, 7)
		final := mc.CheckpointOptions{Path: filepath.Join(dir, "warm.ckpt"), KeepFinal: true}
		if res := run(b, drifted, final, seed); !res.WarmStarted {
			b.Fatal("the drifted plant did not warm-start")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, drifted, final, seed)
		}
	})
	b.Run("chain", func(b *testing.B) {
		plants := [2]*plant.Plant{build(b, 5, 7), build(b, 6, 8)}
		files := [2]string{filepath.Join(dir, "chain0.ckpt"), filepath.Join(dir, "chain1.ckpt")}
		prev := seed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := files[i%2]
			if res := run(b, plants[i%2], mc.CheckpointOptions{Path: next, KeepFinal: true}, prev); !res.WarmStarted {
				b.Fatalf("chain step %d did not warm-start", i)
			}
			prev = next
		}
	})
}
