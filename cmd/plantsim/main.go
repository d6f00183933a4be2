// Command plantsim synthesizes a control program and executes it in the
// simulated LEGO plant (the paper's Section 6): the central controller runs
// the synthesized RCX program over an unreliable IR link to the distributed
// unit controllers, and safety monitors validate the run.
//
// The -wear flag reproduces the paper's worn-batteries experiment: the
// program is synthesized against the nominal timing but executed in a plant
// whose actions take `wear` times longer, so the monitors catch the
// resulting timing violations; re-synthesizing against the worn timing
// (-resynth) fixes the run. The shared search flag block configures the
// schedule search, including -progress and -report observability.
package main

import (
	"flag"
	"fmt"
	"os"

	"guidedta/internal/cliutil"
	"guidedta/internal/core"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/sim"
	"guidedta/internal/synth"
)

func main() {
	var (
		batches = flag.Int("batches", 2, "number of batches (cycling Q1,Q2,Q3)")
		loss    = flag.Float64("loss", 0.0, "IR message loss probability per direction")
		seed    = flag.Int64("seed", 1, "random seed for the lossy link")
		wear    = flag.Float64("wear", 1.0, "plant slowdown factor (worn batteries); >1 breaks nominal programs")
		resynth = flag.Bool("resynth", false, "synthesize against the worn timing instead of nominal")
		verbose = flag.Bool("v", false, "print the schedule before running")
	)
	sf := cliutil.AddSearchFlags(flag.CommandLine, mc.DefaultOptions(mc.DFS), "stats")
	flag.Parse()

	nominal := plant.DefaultParams()
	worn := scaleParams(nominal, *wear)

	synthParams := nominal
	if *resynth {
		synthParams = worn
	}
	cfg := plant.Config{
		Qualities: plant.CycleQualities(*batches),
		Guides:    plant.AllGuides,
		Params:    synthParams,
	}
	p, err := plant.Build(cfg)
	if err != nil {
		fatal(err)
	}
	opts, err := sf.Options()
	if err != nil {
		fatal(err)
	}
	rep := sf.Instrument("plantsim", fmt.Sprintf("%d batches, %s timing", *batches, timingName(*resynth, *wear)),
		&opts, p.Sys, &p.Goal)

	ctx, stop := cliutil.SignalContext()
	defer stop()
	res, err := core.SynthesizePlant(ctx, p, opts, synth.Options{})
	if werr := sf.WriteReport(rep); werr != nil {
		fatal(werr)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized %d commands (%d RCX instructions) against %s timing\n",
		len(res.Schedule.Lines), len(res.Program), timingName(*resynth, *wear))
	if *verbose {
		fmt.Print(res.Schedule.Format())
	}

	rep2, err := res.Simulate(sim.Config{
		Params:   worn,
		LossProb: *loss,
		Seed:     *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plant run: %d/%d ladles stored, cast order %v, %d messages (%d lost), end at tick %d\n",
		rep2.Stored, *batches, rep2.CastOrder, rep2.MessagesSent, rep2.MessagesLost, rep2.EndTime)
	if len(rep2.Violations) == 0 {
		fmt.Println("no safety violations — the program works in the plant")
		return
	}
	fmt.Printf("%d safety violations:\n", len(rep2.Violations))
	for _, v := range rep2.Violations {
		fmt.Printf("  %v\n", v)
	}
	os.Exit(1)
}

func scaleParams(p plant.Params, f float64) plant.Params {
	s := func(v int32) int32 {
		scaled := int32(float64(v) * f)
		if scaled < v && f > 1 {
			scaled = v
		}
		return scaled
	}
	p.BMove = s(p.BMove)
	p.CMove = s(p.CMove)
	p.CUp = s(p.CUp)
	p.CDown = s(p.CDown)
	// Treatment and casting durations are recipe properties, not battery-
	// driven mechanics; they stay fixed.
	return p
}

func timingName(resynth bool, wear float64) string {
	if resynth {
		return fmt.Sprintf("worn (x%.2f, remeasured)", wear)
	}
	return "nominal"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plantsim:", err)
	os.Exit(1)
}
