package mc_test

import (
	"path/filepath"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// BenchmarkWarmKeepFinal is one re-synthesis step of a plant whose
// treatment times drifted: a DFS search of the 3-batch all-guides plant,
// warm-started from the kept-final checkpoint of the nominal plant,
// keeping its own final checkpoint. It covers the whole round trip —
// Load, seeding, search, capture and Write.
func BenchmarkWarmKeepFinal(b *testing.B) {
	build := func(treatA, treatB int32) *plant.Plant {
		pm := plant.DefaultParams()
		pm.TreatA, pm.TreatB = treatA, treatB
		p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides, Params: pm})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	run := func(p *plant.Plant, ck mc.CheckpointOptions, warm string) mc.Result {
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
	run(build(4, 6), mc.CheckpointOptions{Path: seed, KeepFinal: true}, "")
	drifted := build(5, 7)
	final := mc.CheckpointOptions{Path: filepath.Join(dir, "warm.ckpt"), KeepFinal: true}
	if res := run(drifted, final, seed); !res.WarmStarted {
		b.Fatal("the drifted plant did not warm-start")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(drifted, final, seed)
	}
}
