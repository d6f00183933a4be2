// Command mcfuzz is the differential fuzzing and cross-check harness for
// the model checker and the synthesis pipeline. It generates seeded
// random-but-valid timed-automata networks, runs every engine
// configuration (BFS/DFS × inclusion × compact store × extrapolation
// flavor × parallelism, plus the bit-state under-approximations and
// BestTime) on each, and enforces the soundness contract: exact
// configurations agree on the verdict, every witness trace replays,
// concretizes, and passes the urgency audit, and the under-approximations
// never invent goals. Failing inputs are shrunk to minimal .gta repros
// and written next to the corpus so they become regression tests.
//
// Usage:
//
//	mcfuzz [flags]
//
// A campaign is deterministic per -seed. With -plant the end-to-end sweep
// (synth → rcx → sim across guide levels, batch counts, link loss, comm
// delay, and battery-worn timing) runs too. Built with -tags dbmcheck,
// every partial close of the DBM library is also checked against a full
// Close. Exit status 1 when any problem was found, 0 on a clean campaign.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"guidedta/internal/fuzz"
	"guidedta/internal/mc"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed (campaigns are deterministic per seed)")
		cases     = flag.Int("cases", 200, "number of generated cross-check cases")
		plantFlag = flag.Bool("plant", false, "also run the end-to-end plant synthesis/simulation sweep")
		search    = flag.String("search", "dfs", "search order for the plant sweep's synthesis runs (the cross-check matrix always runs every order)")
		corpus    = flag.String("corpus", "internal/fuzz/testdata/corpus", "directory for shrunk .gta repros ('' = don't write)")
		maxStates = flag.Int("max-states", 100000, "per-search state budget")
		verbose   = flag.Bool("v", false, "print per-case progress")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mcfuzz [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	order, err := mc.ParseSearchOrder(*search)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcfuzz:", err)
		os.Exit(2)
	}

	h := &fuzz.Harness{MaxStates: *maxStates}
	progress := func(done int) {
		if *verbose && done%20 == 0 {
			fmt.Fprintf(os.Stderr, "mcfuzz: %d/%d cases\n", done, *cases)
		}
	}
	fmt.Printf("mcfuzz: cross-check campaign seed=%d cases=%d\n", *seed, *cases)
	problems := h.Run(*seed, *cases, progress)

	if *plantFlag {
		fmt.Printf("mcfuzz: plant sweep seed=%d (%d scenarios)\n", *seed, len(fuzz.PlantCases()))
		plantProgress := func(name string) {
			if *verbose {
				fmt.Fprintf(os.Stderr, "mcfuzz: plant %s\n", name)
			}
		}
		problems = append(problems, fuzz.RunPlantSweep(*seed, mc.DefaultOptions(order), plantProgress)...)
	}

	if len(problems) == 0 {
		fmt.Println("mcfuzz: clean — no divergences, replay failures, or sim violations")
		return
	}
	for i, p := range problems {
		fmt.Printf("mcfuzz: PROBLEM %d: %v\n", i+1, p)
		if p.Spec == nil {
			continue
		}
		src, err := p.Spec.Source()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfuzz: repro does not serialize: %v\n", err)
			continue
		}
		fmt.Printf("--- shrunk repro (%d lines) ---\n%s", p.Spec.SourceLines(), src)
		if *corpus != "" {
			name := fmt.Sprintf("seed%d-case%d-%s.gta", *seed, p.Case, p.Kind)
			path := filepath.Join(*corpus, name)
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mcfuzz: writing repro: %v\n", err)
			} else {
				fmt.Printf("mcfuzz: repro written to %s\n", path)
			}
		}
	}
	os.Exit(1)
}
