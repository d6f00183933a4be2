package main

import (
	"context"
	"fmt"

	"guidedta/internal/core"
	"guidedta/internal/fuzz"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
	"guidedta/internal/sim"
	"guidedta/internal/synth"
)

// synthBatches sizes the synth-plant instance: 2 to 4 batches finish in
// milliseconds and 6 take tens of seconds, so 5 gives an operation of
// about a second and a half.
const synthBatches = 5

// synthPlant is the paper's pipeline on one plant instance: schedule
// search, concretization, schedule projection, program synthesis and
// simulation. The instance does not depend on the seed.
type synthPlant struct {
	cfg      plant.Config
	unguided *plant.Plant // the replay target every schedule must pass on
}

func newSynthPlant(int64) workload { return &synthPlant{} }

// synthDetail is what a traced synth-plant operation hands to layers.
type synthDetail struct {
	stats         mc.Stats
	exploreAllocs uint64 // heap objects allocated by the search
	instructions  int
}

func (w *synthPlant) setup(ctx context.Context) error {
	w.cfg = plant.Config{Qualities: plant.CycleQualities(synthBatches), Guides: plant.AllGuides}
	ucfg := w.cfg
	ucfg.Guides = plant.NoGuides
	u, err := plant.Build(ucfg)
	if err != nil {
		return err
	}
	w.unguided = u
	r, err := w.op(ctx, nil, -1)
	if err != nil {
		return err
	}
	return r.check()
}

func (w *synthPlant) reps(seconds float64) int { return repsFor(seconds, 2.0) }

func (w *synthPlant) op(ctx context.Context, tr *tracer, req int) (opResult, error) {
	if tr != nil {
		return w.tracedOp(ctx, tr, req)
	}
	r := opResult{attempted: 1}
	sw := startWatch()
	res, err := core.SynthesizeContext(ctx, w.cfg, mc.DefaultOptions(mc.DFS), synth.Options{})
	if err != nil {
		return r, err
	}
	rep, err := res.Simulate(sim.Config{})
	if err != nil {
		return r, err
	}
	sw.stop(&r)
	r.latenciesMS = []float64{r.wall.Seconds() * 1000}
	r.searchMem = res.Search.Stats.MemBytes
	r.check = func() error { return w.check(res.Plant, res.Search, res.Schedule, rep) }
	return r, nil
}

// tracedOp runs the same pipeline as core.SynthesizeContext plus
// Simulate, one public call at a time, with a span around each.
func (w *synthPlant) tracedOp(ctx context.Context, tr *tracer, req int) (opResult, error) {
	r := opResult{attempted: 1}
	var d synthDetail
	root := tr.begin("op", -1, req)
	sw := startWatch()
	var (
		p     *plant.Plant
		res   mc.Result
		steps []mc.ConcreteStep
		sched schedule.Schedule
		codec *synth.Codec
		prog  rcx.Program
		rep   sim.Report
		err   error
	)
	if tr.do("plant.build", root, req, func() { p, err = plant.Build(w.cfg) }); err != nil {
		return r, err
	}
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	tr.do("mc.explore", root, req, func() {
		c0 := readCounters()
		res, err = mc.ExploreContext(ctx, p.Sys, p.Goal, opts)
		d.exploreAllocs = readCounters().sub(c0).allocObjects
	})
	if err != nil {
		return r, err
	}
	if !res.Found {
		return r, fmt.Errorf("no schedule found (%v)", res.Stats)
	}
	if tr.do("mc.concretize", root, req, func() { steps, err = mc.Concretize(p.Sys, res.Trace) }); err != nil {
		return r, err
	}
	tr.do("schedule.project", root, req, func() {
		sched = schedule.FromTrace(p, steps)
		err = sched.Validate()
	})
	if err != nil {
		return r, err
	}
	tr.do("synth.program", root, req, func() {
		codec = synth.NewCodec(sched)
		prog, err = synth.Program(sched, codec, synth.Options{})
	})
	if err != nil {
		return r, err
	}
	tr.do("sim.run", root, req, func() { rep, err = sim.New(prog, codec, p.NumBatches(), sim.Config{Params: p.Cfg.Params}).Run() })
	if err != nil {
		return r, err
	}
	sw.stop(&r)
	tr.end(root)
	d.stats, d.instructions = res.Stats, len(prog)
	r.detail = d
	r.searchMem = res.Stats.MemBytes
	r.latenciesMS = []float64{r.wall.Seconds() * 1000}
	r.check = func() error { return w.check(p, res, sched, rep) }
	return r, nil
}

// check verifies one synthesis: the schedule validates, its trace replays
// on the unguided model, and the program runs the plant to completion.
func (w *synthPlant) check(p *plant.Plant, res mc.Result, sched schedule.Schedule, rep sim.Report) error {
	if err := sched.Validate(); err != nil {
		return fmt.Errorf("schedule invalid: %w", err)
	}
	mapped, err := plant.MapTrace(p.Sys, w.unguided.Sys, res.Trace)
	if err != nil {
		return fmt.Errorf("mapping the trace onto the unguided model: %w", err)
	}
	if err := fuzz.CheckTrace(w.unguided.Sys, w.unguided.Goal, mapped); err != nil {
		return fmt.Errorf("schedule does not replay on the unguided model: %w", err)
	}
	if !rep.OK(p.NumBatches()) {
		return fmt.Errorf("simulation failed: %d violation(s), %d of %d ladles stored",
			len(rep.Violations), rep.Stored, p.NumBatches())
	}
	return nil
}

func (w *synthPlant) layers(spans []span, traced []opResult) map[string]float64 {
	m := make(map[string]float64)
	var allocObjs []float64
	var d synthDetail
	for _, r := range traced {
		d = r.detail.(synthDetail)
		allocObjs = append(allocObjs, float64(d.exploreAllocs))
	}
	var c searchCounts
	c.add(d.stats)
	addSearchLayer(m, c, median(spanMillis(spans, "mc.explore"))/1000)
	m["mc.allocs_per_state"] = ratio(median(allocObjs), float64(d.stats.StatesExplored))
	m["plant.build_ms"] = median(spanMillis(spans, "plant.build"))
	m["mc.concretize_ms"] = median(spanMillis(spans, "mc.concretize"))
	m["schedule.project_ms"] = median(spanMillis(spans, "schedule.project"))
	m["synth.program_ms"] = median(spanMillis(spans, "synth.program"))
	m["synth.instructions"] = float64(d.instructions)
	m["sim.run_ms"] = median(spanMillis(spans, "sim.run"))
	return m
}

// searchCounts are the engine's effort counters of one search, or their
// sums over several.
type searchCounts struct {
	explored, stored, transitions, peakWaiting int
	evictions, storeBytes                      int64
}

// add accumulates one search's counters; the peak waiting length is the
// largest of them.
func (c *searchCounts) add(s mc.Stats) {
	c.explored += s.StatesExplored
	c.stored += s.StatesStored
	c.transitions += s.Transitions
	c.peakWaiting = max(c.peakWaiting, s.PeakWaiting)
	c.evictions += s.Evictions
	c.storeBytes += s.StoreBytes
}

// addSearchLayer sets the mc layer's count and rate metrics.
func addSearchLayer(m map[string]float64, c searchCounts, exploreS float64) {
	accepted := float64(c.stored) + float64(c.evictions)
	m["mc.explore_s"] = exploreS
	m["mc.states_per_s"] = ratio(float64(c.explored), exploreS)
	m["mc.states_explored"] = float64(c.explored)
	m["mc.transitions"] = float64(c.transitions)
	m["mc.states_stored"] = float64(c.stored)
	m["mc.evictions"] = float64(c.evictions)
	m["mc.accept_ratio"] = ratio(accepted, float64(c.transitions))
	m["mc.evict_ratio"] = ratio(float64(c.evictions), accepted)
	m["mc.peak_waiting"] = float64(c.peakWaiting)
	m["mc.store_mb"] = float64(c.storeBytes) / mib
}
