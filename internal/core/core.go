// Package core is the public facade of the guided-synthesis pipeline, the
// paper's methodology in one call chain (its Figure 1):
//
//	plant model  →  guided model  →  schedule  →  control program  →  plant
//
// Synthesize builds the (optionally guided) plant model, runs zone-based
// reachability to obtain a diagnostic trace, concretizes it into a
// timestamped schedule, and compiles the schedule into an RCX control
// program. Simulate then executes that program in the discrete-event LEGO
// plant. The search options pass straight through to mc.Explore, so
// mc.Options.Workers > 1 runs the parallel work-stealing search; any
// witness trace it finds concretizes into a valid schedule exactly like a
// sequential one.
package core

import (
	"context"
	"fmt"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
	"guidedta/internal/sim"
	"guidedta/internal/synth"
)

// Result carries every artifact of one synthesis run.
type Result struct {
	Plant    *plant.Plant
	Search   mc.Result
	Steps    []mc.ConcreteStep
	Schedule schedule.Schedule
	Program  rcx.Program
	Codec    *synth.Codec
}

// Synthesize runs the full pipeline for a plant configuration. It is
// SynthesizeContext with a background context.
func Synthesize(cfg plant.Config, opts mc.Options, so synth.Options) (*Result, error) {
	return SynthesizeContext(context.Background(), cfg, opts, so)
}

// SynthesizeContext runs the full pipeline for a plant configuration under
// ctx; canceling ctx aborts the schedule search (mc.AbortCanceled). The
// zero synth.Options value gives the defaults. An unreachable goal (no
// feasible schedule, or a search aborted by its limits) returns an error
// wrapping the search statistics in the message. It is plant.Build
// followed by SynthesizePlant.
func SynthesizeContext(ctx context.Context, cfg plant.Config, opts mc.Options, so synth.Options) (*Result, error) {
	p, err := plant.Build(cfg)
	if err != nil {
		return nil, err
	}
	return SynthesizePlant(ctx, p, opts, so)
}

// SynthesizePlant runs the pipeline on an already built plant model, for
// callers that built it themselves (the synthesis service builds each
// model once at admission and reuses it across retries). The plant is
// only read, so one plant may serve any number of runs.
func SynthesizePlant(ctx context.Context, p *plant.Plant, opts mc.Options, so synth.Options) (*Result, error) {
	if opts.Search == mc.BestTime && opts.TimeClock == 0 {
		// Every plant model carries a never-reset global clock, and the
		// horizon "deadline per batch plus slack" bounds any schedule worth
		// having. Defaulting both here makes BestTime usable without plant
		// internals leaking to every caller; explicit values win.
		opts.TimeClock = p.GlobalClock
		if opts.TimeHorizon == 0 {
			opts.TimeHorizon = p.Cfg.TimeHorizon()
		}
	}
	if opts.Observer == nil || opts.Observer.Priority == nil {
		// The plant ships a search-order heuristic (explore deliveries
		// before cast completions); callers may override it by passing an
		// observer that carries its own priority. Any watching observer
		// the caller installed keeps receiving every event.
		opts.Observer = mc.Observers(opts.Observer, &mc.FuncObserver{Priority: p.Priority})
	}
	res, err := mc.ExploreContext(ctx, p.Sys, p.Goal, opts)
	if err != nil {
		return nil, err
	}
	if !res.Found {
		if res.Abort != mc.AbortNone {
			return nil, fmt.Errorf("core: search aborted (%s) after %v", res.Abort, res.Stats)
		}
		return nil, fmt.Errorf("core: no feasible schedule exists for this instance (%v)", res.Stats)
	}
	steps, err := mc.Concretize(p.Sys, res.Trace)
	if err != nil {
		return nil, fmt.Errorf("core: concretizing trace: %w", err)
	}
	sched := schedule.FromTrace(p, steps)
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: projected schedule invalid: %w", err)
	}
	codec := synth.NewCodec(sched)
	prog, err := synth.Program(sched, codec, so)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plant:    p,
		Search:   res,
		Steps:    steps,
		Schedule: sched,
		Program:  prog,
		Codec:    codec,
	}, nil
}

// Simulate executes the synthesized program in the simulated LEGO plant.
// An empty sim.Config simulates the same timing the schedule was
// synthesized for.
func (r *Result) Simulate(cfg sim.Config) (sim.Report, error) {
	if cfg.Params == (plant.Params{}) {
		cfg.Params = r.Plant.Cfg.Params
	}
	s := sim.New(r.Program, r.Codec, r.Plant.NumBatches(), cfg)
	return s.Run()
}
