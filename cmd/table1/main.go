// Command table1 regenerates the paper's Table 1: the time and space
// UPPAAL needs to generate schedules, per number of batches, for the three
// guide levels (All, Some, None) and three search strategies (BFS, DFS,
// DFS + bit-state hashing). Cells that exhaust the memory budget or the
// time budget print "-", like the paper's dashes (256 MB / two hours on
// their 1999 hardware; both budgets are flags here). With -discover an
// extra column reports what automatic guide discovery (internal/guide)
// finds for each row — the discovered set and its oracle effort, next to
// the hand-written levels. With -report the per-cell searches are also
// written as one machine-readable JSON report; Ctrl-C stops the table
// cleanly after the current cell.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"guidedta/internal/cliutil"
	"guidedta/internal/guide"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/tadsl"
)

func main() {
	var (
		batchList = flag.String("batches", "1,2,3,5,7,10,15,20,25,30,35,60", "batch counts (rows)")
		csv       = flag.Bool("csv", false, "emit CSV instead of the formatted table")

		discover       = flag.Bool("discover", false, "add a guide-discovery column: per row, search for a guide set automatically (internal/guide) and report the winner next to the hand-written levels")
		discoverStates = flag.Int("discover-states", 50000, "state cap per discovery oracle probe")
		discoverProbes = flag.Int("discover-probes", 64, "discovery probe budget per row")
		discoverSeed   = flag.Int64("discover-seed", 1, "discovery candidate-order seed")
	)
	defaults := mc.DefaultOptions(mc.BFS)
	defaults.HashBits = 23
	defaults.MaxStates = 3_000_000
	defaults.MaxMemory = 2048 << 20
	// The search order is fixed per column, so the shared block drops it.
	sf := cliutil.AddSearchFlags(flag.CommandLine, defaults, "search", "stats")
	flag.Parse()

	var rows []int
	for _, part := range strings.Split(*batchList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "table1: bad batch count %q\n", part)
			os.Exit(2)
		}
		rows = append(rows, n)
	}

	guides := []plant.GuideLevel{plant.AllGuides, plant.SomeGuides, plant.NoGuides}
	searches := []mc.SearchOrder{mc.BFS, mc.DFS, mc.BSH}

	if *csv {
		fmt.Println("batches,guides,search,found,seconds,MB,explored,stored,guide_set")
	} else {
		fmt.Println("Time (sec) and space (MB) for generating schedules")
		fmt.Printf("%-4s |", "#")
		for _, g := range guides {
			fmt.Printf(" %-29s |", titleCase(g.String())+" Guides")
		}
		if *discover {
			fmt.Print(" Discovered")
		}
		fmt.Println()
		fmt.Printf("%-4s |", "")
		for range guides {
			for _, s := range searches {
				fmt.Printf(" %-9s", s)
			}
			fmt.Print("|")
		}
		fmt.Println()
	}

	var rep *cliutil.Report
	if sf.Report != "" {
		rep = cliutil.NewReport("table1")
	}
	ctx, stop := cliutil.SignalContext()
	defer stop()

	// Once a (guides, search) column fails, larger instances will too;
	// skip them like the paper's dashes.
	dead := make(map[string]bool)
	for _, n := range rows {
		if !*csv {
			fmt.Printf("%-4d |", n)
		}
		for _, g := range guides {
			for _, s := range searches {
				col := fmt.Sprintf("%v-%v", g, s)
				if dead[col] {
					emit(*csv, n, g, s, nil)
					continue
				}
				res := runCell(ctx, sf, rep, n, g, s)
				if res.Abort == mc.AbortCanceled {
					finishReport(sf, rep)
					fmt.Fprintln(os.Stderr, "\ntable1: canceled")
					os.Exit(1)
				}
				if !res.Found {
					dead[col] = true
					emit(*csv, n, g, s, nil)
					continue
				}
				emit(*csv, n, g, s, res)
			}
			if !*csv {
				fmt.Print("|")
			}
		}
		if *discover {
			// The discovery column searches for a guide set per row instead
			// of running a fixed one; the dead-column skip applies like the
			// preset columns (once the budget stops finding schedules for n
			// batches, larger instances won't fare better).
			const col = "discovered"
			var best *guide.Evaluation
			var probes int
			if !dead[col] {
				dres, err := guide.Search(ctx, plant.Config{Qualities: plant.CycleQualities(n)}, guide.Options{
					Budget: guide.Budget{ProbeStates: *discoverStates, MaxProbes: *discoverProbes},
					Seed:   *discoverSeed,
				})
				if err != nil {
					if ctx.Err() != nil {
						finishReport(sf, rep)
						fmt.Fprintln(os.Stderr, "\ntable1: canceled")
						os.Exit(1)
					}
					fmt.Fprintln(os.Stderr, "table1:", err)
					os.Exit(1)
				}
				probes = dres.Probes
				if dres.Best.Found {
					best = &dres.Best
				} else {
					dead[col] = true
				}
			}
			emitDiscovered(*csv, n, best, probes)
		}
		if !*csv {
			fmt.Println()
		}
	}
	finishReport(sf, rep)
}

func runCell(ctx context.Context, sf *cliutil.SearchFlags, rep *cliutil.Report, n int, g plant.GuideLevel, s mc.SearchOrder) *mc.Result {
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(n), Guides: g})
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	opts, err := sf.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	opts.Search = s
	if opts.Checkpoint.Path != "" {
		if s == mc.BSH {
			// The bit table stores only hashes and cannot checkpoint; run
			// its cells without one rather than failing validation.
			opts.Checkpoint = mc.CheckpointOptions{}
		} else {
			// One file per cell: all cells share the flag block, and a BFS
			// checkpoint must not seed the DFS cell of the same instance.
			opts.Checkpoint.Path = fmt.Sprintf("%s.%d-%v-%v", opts.Checkpoint.Path, n, g, s)
			if sha, err := tadsl.Hash(p.Sys, &p.Goal); err == nil {
				opts.Checkpoint.ModelSHA = sha
			}
		}
	}
	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	var obs []*mc.FuncObserver
	if sf.Progress {
		obs = append(obs, cliutil.ProgressObserver(os.Stderr, fmt.Sprintf("table1 %d/%v/%v", n, g, s)))
	}
	if rep != nil {
		run := rep.Run(fmt.Sprintf("batches=%d guides=%v search=%v", n, g, s))
		run.SetModel(p.Sys, &p.Goal, opts.Checkpoint.ModelSHA)
		run.SetOptions(opts)
		obs = append(obs, run.Observer())
	}
	if len(obs) > 0 {
		opts.SnapshotEvery = sf.SnapshotEvery
		opts.Observer = mc.Observers(append(obs, opts.Observer)...)
	}
	res, err := mc.ExploreContext(ctx, p.Sys, p.Goal, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	return &res
}

func finishReport(sf *cliutil.SearchFlags, rep *cliutil.Report) {
	if err := sf.WriteReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func emit(csv bool, n int, g plant.GuideLevel, s mc.SearchOrder, res *mc.Result) {
	if csv {
		set := g.GuideSet(0).String()
		if res == nil {
			fmt.Printf("%d,%v,%v,false,,,,,%s\n", n, g, s, set)
			return
		}
		fmt.Printf("%d,%v,%v,true,%.2f,%.1f,%d,%d,%s\n", n, g, s,
			res.Stats.Duration.Seconds(), float64(res.Stats.MemBytes)/(1<<20),
			res.Stats.StatesExplored, res.Stats.StatesStored, set)
		return
	}
	if res == nil {
		fmt.Printf(" %-9s", "-")
		return
	}
	fmt.Printf(" %4.1f/%-4.0f", res.Stats.Duration.Seconds(), float64(res.Stats.MemBytes)/(1<<20))
}

// emitDiscovered prints the guide-discovery column: the winning guide
// set's oracle effort next to the hand-written levels. In CSV mode the
// row's guides value is "discovered", the search column names the
// discovery oracle, seconds is the cumulative oracle time to the first
// schedule, and MB stays empty (the oracle caps states, not memory).
func emitDiscovered(csv bool, n int, best *guide.Evaluation, probes int) {
	if csv {
		if best == nil {
			fmt.Printf("%d,discovered,DFS,false,,,,,\n", n)
			return
		}
		fmt.Printf("%d,discovered,DFS,true,%.2f,,%d,%d,%s\n", n,
			best.Duration.Seconds(), best.Explored, best.Stored, best.Guides.String())
		return
	}
	if best == nil {
		fmt.Print(" -")
		return
	}
	fmt.Printf(" %s (%.1fs, %d probes)", best.Guides.String(), best.Duration.Seconds(), probes)
}
