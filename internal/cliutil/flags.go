// Package cliutil is the shared command-line plumbing of the cmd/
// binaries: the common search-option flag block, the live -progress status
// line, the -report machine-readable run report (with its checked-in JSON
// schema), and signal-driven cancellation. It exists so the five binaries
// configure and observe the model checker identically instead of each
// re-growing its own flag block and stats printer.
package cliutil

import (
	"flag"
	"os"
	"strings"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// SearchFlags holds the parsed values of the shared search flag block.
// Register it with AddSearchFlags and convert to engine options with
// Options after flag parsing.
type SearchFlags struct {
	Search      string
	HashBits    int
	NoInclusion bool
	NoActive    bool
	Compact     bool
	Workers     int
	MaxStates   int
	MaxMemoryMB int64
	Timeout     time.Duration
	Stats       bool
	// Progress enables the live status line (see ProgressObserver);
	// Report, when non-empty, is the path of the JSON run report.
	Progress      bool
	Report        string
	SnapshotEvery time.Duration
	// Checkpoint/CheckpointInterval/Resume configure durable search state
	// (mc.Options.Checkpoint): a checkpoint file, the periodic write
	// cadence, and whether to seed the run from an existing file.
	Checkpoint         string
	CheckpointInterval time.Duration
	Resume             bool
}

// AddSearchFlags registers the shared search flag block on fs, taking
// defaults from def (so each binary keeps its historical defaults, e.g.
// table1's larger hash table). Flags named in omit are skipped — table1
// omits "search" because its columns fix the order. Call Options after
// fs.Parse.
func AddSearchFlags(fs *flag.FlagSet, def mc.Options, omit ...string) *SearchFlags {
	skip := make(map[string]bool, len(omit))
	for _, name := range omit {
		skip[name] = true
	}
	f := &SearchFlags{Search: strings.ToLower(def.Search.String())}
	add := func(name string, register func()) {
		if !skip[name] {
			register()
		}
	}
	workers := def.Workers
	if workers < 1 {
		workers = 1
	}
	add("search", func() {
		fs.StringVar(&f.Search, "search", f.Search, "search order: bfs, dfs, bsh, or besttime")
	})
	add("hashbits", func() {
		fs.IntVar(&f.HashBits, "hashbits", def.HashBits, "bit-state hash table size (2^n bits, bsh only)")
	})
	add("no-inclusion", func() {
		fs.BoolVar(&f.NoInclusion, "no-inclusion", !def.Inclusion, "disable zone inclusion checking")
	})
	add("no-active", func() {
		fs.BoolVar(&f.NoActive, "no-active", !def.ActiveClocks, "disable (in-)active clock reduction")
	})
	add("compact", func() {
		fs.BoolVar(&f.Compact, "compact", def.Compact, "store passed zones in minimal-constraint form (lower memory, same answers; on by default, -compact=false restores the full-DBM store)")
	})
	add("workers", func() {
		fs.IntVar(&f.Workers, "workers", workers, "parallel search workers (bfs/dfs only; 1 = sequential)")
	})
	add("max-states", func() {
		fs.IntVar(&f.MaxStates, "max-states", def.MaxStates, "abort after exploring this many states (0 = unlimited)")
	})
	add("max-memory", func() {
		fs.Int64Var(&f.MaxMemoryMB, "max-memory", def.MaxMemory>>20, "abort when estimated search memory exceeds this many MB (0 = unlimited)")
	})
	add("timeout", func() {
		fs.DurationVar(&f.Timeout, "timeout", def.Timeout, "abort after this wall-clock duration (0 = unlimited)")
	})
	add("stats", func() {
		fs.BoolVar(&f.Stats, "stats", false, "print detailed search statistics (enables profiling)")
	})
	add("progress", func() {
		fs.BoolVar(&f.Progress, "progress", false, "print a live search progress line to stderr")
	})
	add("report", func() {
		fs.StringVar(&f.Report, "report", "", "write a machine-readable JSON run report to this file")
	})
	add("snapshot-every", func() {
		fs.DurationVar(&f.SnapshotEvery, "snapshot-every", 500*time.Millisecond, "progress snapshot interval (used by -progress and -report)")
	})
	add("checkpoint", func() {
		fs.StringVar(&f.Checkpoint, "checkpoint", "", "write a resumable search checkpoint to this file on abort (timeout, limits, ^C) and, with -checkpoint-interval, periodically")
	})
	add("checkpoint-interval", func() {
		fs.DurationVar(&f.CheckpointInterval, "checkpoint-interval", 0, "periodic checkpoint cadence (0 = abort-time only; requires -checkpoint)")
	})
	add("resume", func() {
		fs.BoolVar(&f.Resume, "resume", false, "seed the search from the -checkpoint file when it exists (same model and options required)")
	})
	return f
}

// Options converts the parsed flag block to engine options (profiling is
// enabled when detailed stats or a report were requested, so both have the
// full counters).
func (f *SearchFlags) Options() (mc.Options, error) {
	order, err := mc.ParseSearchOrder(f.Search)
	if err != nil {
		return mc.Options{}, err
	}
	opts := mc.DefaultOptions(order)
	opts.HashBits = f.HashBits
	opts.Inclusion = !f.NoInclusion
	opts.ActiveClocks = !f.NoActive
	opts.Compact = f.Compact
	opts.Workers = f.Workers
	opts.MaxStates = f.MaxStates
	opts.MaxMemory = f.MaxMemoryMB << 20
	opts.Timeout = f.Timeout
	opts.Profile = f.Stats || f.Report != ""
	opts.Checkpoint = mc.CheckpointOptions{
		Path:     f.Checkpoint,
		Interval: f.CheckpointInterval,
		Resume:   f.Resume,
	}
	return opts, nil
}

// Instrument attaches the observability the flags requested — the live
// progress line and/or the run report — to opts, composing with any
// observer already installed there (a guiding observer keeps its
// priority). It returns the report to write after the run, or nil when
// -report was not given. name labels the run inside the report; sys and
// goal (both optional) identify the model.
func (f *SearchFlags) Instrument(tool, name string, opts *mc.Options, sys *ta.System, goal *mc.Goal) *Report {
	if opts.Checkpoint.Path != "" && opts.Checkpoint.ModelSHA == "" && sys != nil && goal != nil {
		// Stamp the model digest into checkpoints so a resume against a
		// different model fails loudly instead of exploring garbage.
		if sha, err := tadsl.Hash(sys, goal); err == nil {
			opts.Checkpoint.ModelSHA = sha
		}
	}
	var obs []*mc.FuncObserver
	var rep *Report
	if f.Progress {
		obs = append(obs, ProgressObserver(os.Stderr, tool))
	}
	if f.Report != "" {
		rep = NewReport(tool)
		run := rep.Run(name)
		run.SetModel(sys, goal, "")
		run.SetOptions(*opts)
		obs = append(obs, run.Observer())
	}
	if len(obs) > 0 {
		if opts.SnapshotEvery == 0 {
			opts.SnapshotEvery = f.SnapshotEvery
		}
		opts.Observer = mc.Observers(append(obs, opts.Observer)...)
	}
	return rep
}

// WriteReport writes rep to the -report path when both are set; it is a
// no-op otherwise, so callers can defer it unconditionally.
func (f *SearchFlags) WriteReport(rep *Report) error {
	if rep == nil || f.Report == "" {
		return nil
	}
	return rep.WriteFile(f.Report)
}
