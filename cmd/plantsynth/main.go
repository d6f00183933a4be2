// Command plantsynth runs the paper's full methodology (Figure 1): build
// the guided plant model for a production list, derive a schedule with the
// model checker, and synthesize the distributed control program.
//
// Examples:
//
//	plantsynth -batches 2                     # schedule, Table 2 style
//	plantsynth -qualities 1,2,3 -rcx          # synthesized RCX program
//	plantsynth -batches 5 -guides some -stats # search effort only
//	plantsynth -batches 10 -progress -report run.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"guidedta/internal/cliutil"
	"guidedta/internal/core"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/synth"
	"guidedta/internal/tadsl"
)

func main() {
	guides := plant.AllGuides
	flag.TextVar(&guides, "guides", plant.AllGuides, "guide level: none, some, all")
	var (
		batches   = flag.Int("batches", 2, "number of batches (production list cycles Q1,Q2,Q3)")
		qualities = flag.String("qualities", "", "explicit production list, e.g. 1,2,3,4,5 (overrides -batches)")
		rcxOut    = flag.Bool("rcx", false, "print the synthesized RCX control program")
		annotated = flag.Bool("annotated", false, "print the schedule with absolute timestamps")
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
		statsOnly = flag.Bool("stats", false, "print search statistics only")
		export    = flag.String("export", "", "write the built model in tadsl format to this file and exit")
	)
	sf := cliutil.AddSearchFlags(flag.CommandLine, mc.DefaultOptions(mc.DFS), "stats")
	flag.Parse()

	cfg := plant.Config{Guides: guides}
	if *qualities != "" {
		for _, part := range strings.Split(*qualities, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad quality %q", part))
			}
			cfg.Qualities = append(cfg.Qualities, plant.Quality(q))
		}
	} else {
		cfg.Qualities = plant.CycleQualities(*batches)
	}

	// The model is built once up front: for -export, for the BestTime
	// order's global clock, and for the report's model identity (core
	// rebuilds the same deterministic model for the search itself).
	p, err := plant.Build(cfg)
	if err != nil {
		fatal(err)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		err = tadsl.Write(f, p.Sys, &p.Goal)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("export %s: %w", *export, err))
		}
		fmt.Printf("wrote %s (%v); check it with: go run ./cmd/guidedmc %s\n",
			*export, p.Sys.Stats(), *export)
		return
	}

	opts, err := sf.Options()
	if err != nil {
		fatal(err)
	}
	if opts.Search == mc.BestTime {
		opts.TimeClock = p.GlobalClock
		opts.TimeHorizon = cfg.TimeHorizon()
	}
	rep := sf.Instrument("plantsynth", fmt.Sprintf("%d batches, %s guides", len(cfg.Qualities), guides),
		&opts, p.Sys, &p.Goal)

	ctx, stop := cliutil.SignalContext()
	defer stop()
	res, err := core.SynthesizePlant(ctx, p, opts, synth.Options{})
	// The report carries whatever the search returned — also for aborted
	// or infeasible searches, where synthesis errors out below.
	if werr := sf.WriteReport(rep); werr != nil {
		fatal(werr)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model: %v\n", res.Plant.Sys.Stats())
	fmt.Printf("search: %s, %v\n", opts.Search, res.Search.Stats)
	if *statsOnly {
		return
	}
	fmt.Printf("\nschedule (%d commands, horizon %s):\n",
		len(res.Schedule.Lines), mc.TimeString(res.Schedule.Horizon))
	if *annotated {
		fmt.Print(res.Schedule.FormatAnnotated())
	} else {
		fmt.Print(res.Schedule.Format())
	}
	if *gantt {
		fmt.Println()
		fmt.Print(res.Schedule.Gantt(2))
	}
	if *rcxOut {
		fmt.Printf("\nsynthesized central control program (%d instructions, %d command codes):\n\n",
			len(res.Program), res.Codec.NumCommands())
		fmt.Print(res.Program.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plantsynth:", err)
	os.Exit(1)
}
