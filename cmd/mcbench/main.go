// Command mcbench tracks the model checker's memory/time trajectory: it
// runs a fixed suite of models twice — once with the full-DBM passed
// store (Options.Compact = false), once with the compact
// minimal-constraint store that searches use by default — and writes the
// paired numbers to a JSON file (BENCH_mc.json at the repo root, checked
// in as the perf baseline). For historical reasons the full-DBM run is
// the "default" field of each case.
//
// The suite covers a verification benchmark (Fischer's protocol) and the
// paper's guided batch-plant scheduling instances, headlined by the
// 15-batch all-guides case where zone storage dominates and the compact
// store must cut passed-store bytes at least in half.
//
// Usage:
//
//	mcbench                # full suite, writes BENCH_mc.json
//	mcbench -short         # CI smoke suite (seconds, small instances)
//	mcbench -out bench.json
//
// With -serve-url it instead load-tests a running mcserved (cmd/mcserved):
// concurrent clients POST a small model mix and the observed p50/p99
// latency plus cache hit rate are written to BENCH_serve.json:
//
//	mcbench -serve-url http://localhost:8080 -clients 8 -requests 200
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"guidedta/internal/cliutil"
	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/ta"
)

// runStats is the per-run slice of mc.Stats the benchmark file records.
type runStats struct {
	Found              bool    `json:"found"`
	StatesExplored     int     `json:"states_explored"`
	StatesStored       int     `json:"states_stored"`
	DiscreteStates     int     `json:"discrete_states"`
	StoreBytes         int64   `json:"store_bytes"`
	PeakMemBytes       int64   `json:"peak_mem_bytes"`
	BytesPerState      float64 `json:"bytes_per_state"`
	AvgZoneConstraints float64 `json:"avg_zone_constraints,omitempty"`
	Seconds            float64 `json:"seconds"`
	// AllocsPerState is the heap allocations (runtime malloc count) per
	// explored state, and GCPauseMs the total stop-the-world pause time
	// during the run — both from runtime.MemStats deltas around the search,
	// tracking the allocation pressure the two stores put on the runtime.
	AllocsPerState float64 `json:"allocs_per_state"`
	GCPauseMs      float64 `json:"gc_pause_ms"`
	Evictions      int64   `json:"evictions"`
}

// benchCase is one suite entry with its full-DBM ("default") and compact
// pair and the derived ratios (full-DBM divided by compact; higher is
// better for the compact store).
type benchCase struct {
	Name         string   `json:"name"`
	Search       string   `json:"search"`
	Default      runStats `json:"default"`
	Compact      runStats `json:"compact"`
	StoreRatio   float64  `json:"store_ratio"`
	PeakMemRatio float64  `json:"peak_mem_ratio"`
	TimeRatio    float64  `json:"time_ratio"`
	// Agree confirms both runs returned the same verdict and an
	// identical-length witness (the stores are required to make
	// bit-identical subsumption decisions).
	Agree bool `json:"agree"`
	// CheckpointWriteMs and ResumeMs measure the durability seam on the
	// compact configuration: the case is rerun with a checkpoint
	// configured, canceled roughly halfway (the abort writes the
	// checkpoint), and resumed to completion. CheckpointWriteMs is the
	// first run's cumulative pause writing snapshots; ResumeMs the second
	// run's load-and-seed time. ResumedAgree confirms the resumed run
	// reached the reference verdict (and, sequentially, an
	// identical-length witness).
	CheckpointWriteMs float64 `json:"checkpoint_write_ms"`
	ResumeMs          float64 `json:"resume_ms"`
	ResumedAgree      bool    `json:"resumed_agree"`
}

type benchFile struct {
	Generated string      `json:"generated"`
	GoVersion string      `json:"go_version"`
	Cases     []benchCase `json:"cases"`
}

// suiteEntry names a model builder plus its search options. maxStates > 0
// caps the search: because the compact store makes bit-identical
// subsumption decisions, both runs of a capped sequential case abort after
// the exact same explored prefix, so their stores hold the same states and
// the byte comparison is exactly paired. This is how the suite measures
// instances (the 15-batch plant) whose full state space the checker cannot
// exhaust.
type suiteEntry struct {
	name      string
	maxStates int
	build     func() (*ta.System, mc.Goal, mc.Options)
}

func main() {
	var (
		out      = flag.String("out", "BENCH_mc.json", "output JSON path")
		short    = flag.Bool("short", false, "run the reduced CI smoke suite")
		caseSub  = flag.String("case", "", "run only suite cases whose name contains this substring")
		repeat   = flag.Int("repeat", 1, "run each case this many times and keep the fastest run per store (repeats are bit-identical, so only timing varies)")
		workers  = flag.Int("workers", 1, "parallel search workers (1 = sequential)")
		progress = flag.Bool("progress", false, "print a live search progress line to stderr")
		httpAddr = flag.String("http", "", "serve net/http/pprof and expvar (incl. the latest search snapshot) on this address, e.g. localhost:6060")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (after the suite) to this file")
		minTimeRatio = flag.Float64("min-time-ratio", 0, "fail (exit 1) if any case's compact time_ratio falls below this floor — the CI regression guard")

		fleet        = flag.Bool("fleet", false, "fleet re-synthesis mode: warm-vs-cold benchmark (plus an HTTP leg when -serve-url is set), writes -fleet-out")
		fleetPlants  = flag.Int("fleet-plants", 6, "fleet mode: simulated plants streaming disturbances")
		fleetRounds  = flag.Int("fleet-rounds", 2, "fleet mode: disturbance/re-synthesis rounds per plant")
		fleetBatches = flag.Int("fleet-batches", 2, "fleet mode: batches per plant instance")
		fleetOut     = flag.String("fleet-out", "BENCH_fleet.json", "fleet mode: output JSON path")

		serveURL    = flag.String("serve-url", "", "load-generator mode: benchmark a running mcserved at this base URL instead of the engine suite")
		clients     = flag.Int("clients", 8, "load-generator concurrent clients")
		requests    = flag.Int("requests", 200, "load-generator total requests")
		serveModels = flag.Int("serve-models", 4, "load-generator distinct models in the request mix")
		serveOut    = flag.String("serve-out", "BENCH_serve.json", "load-generator output JSON path")
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "load-generator: the server's job-checkpoint cadence (its -checkpoint-every value), recorded in BENCH_serve.json so durability-enabled serve benchmarks are labeled")
	)
	flag.Parse()

	if *fleet {
		if err := runFleet(fleetConfig{
			serveURL: *serveURL,
			plants:   *fleetPlants,
			rounds:   *fleetRounds,
			batches:  *fleetBatches,
			out:      *fleetOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		return
	}

	if *serveURL != "" {
		if err := runLoadGen(loadGenConfig{
			url:        *serveURL,
			clients:    *clients,
			requests:   *requests,
			models:     *serveModels,
			out:        *serveOut,
			checkpoint: *ckptEvery,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		return
	}

	suite := fullSuite()
	if *short {
		suite = shortSuite()
	}
	if *caseSub != "" {
		var filtered []suiteEntry
		for _, e := range suite {
			if strings.Contains(e.name, *caseSub) {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "mcbench: no case matches %q\n", *caseSub)
			os.Exit(1)
		}
		suite = filtered
	}
	if *httpAddr != "" {
		// The default mux already carries /debug/pprof/* (imported above)
		// and /debug/vars (expvar); mc_snapshot exposes the latest search
		// snapshot so a long benchmark can be watched and profiled live.
		expvar.Publish("mc_snapshot", expvar.Func(func() any { return latestSnapshot.get() }))
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: http: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "mcbench: pprof/expvar at http://%s/debug/pprof and /debug/vars\n", *httpAddr)
	}
	watch := *progress || *httpAddr != ""

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	bf := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	for _, e := range suite {
		fmt.Fprintf(os.Stderr, "mcbench: %s\n", e.name)
		c, err := runCase(e, *workers, *repeat, watch, *progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		bf.Cases = append(bf.Cases, c)
		fmt.Fprintf(os.Stderr, "  store %.2fx  peak %.2fx  time %.2fx  (stored=%d, %.0f vs %.0f B/state)\n",
			c.StoreRatio, c.PeakMemRatio, c.TimeRatio,
			c.Default.StatesStored, c.Default.BytesPerState, c.Compact.BytesPerState)
	}

	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mcbench: wrote %s (%d cases)\n", *out, len(bf.Cases))

	// Flush the profiles before any regression-guard exit (os.Exit skips
	// the deferred stops).
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *minTimeRatio > 0 {
		bad := false
		for _, c := range bf.Cases {
			if c.TimeRatio < *minTimeRatio {
				fmt.Fprintf(os.Stderr, "mcbench: REGRESSION %s: time_ratio %.2f below floor %.2f\n",
					c.Name, c.TimeRatio, *minTimeRatio)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
	}
}

// latestSnapshot is the most recent progress snapshot of the running
// search, published as the mc_snapshot expvar when -http is set.
var latestSnapshot snapshotVar

type snapshotVar struct {
	mu sync.Mutex
	s  mc.Snapshot
	ok bool
}

func (v *snapshotVar) set(s mc.Snapshot) {
	v.mu.Lock()
	v.s, v.ok = s, true
	v.mu.Unlock()
}

func (v *snapshotVar) get() any {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.ok {
		return nil
	}
	return v.s
}

func runCase(e suiteEntry, workers, repeat int, watch, progress bool) (benchCase, error) {
	runOnce := func(compact bool) (runStats, mc.Result, error) {
		sys, goal, opts := e.build()
		opts.Compact = compact
		opts.Workers = workers
		opts.MaxStates = e.maxStates
		if watch {
			// Observability is attached only when asked for: the default
			// benchmark runs stay observer-free so the tracked numbers
			// measure the search, not its instrumentation.
			opts.SnapshotEvery = 500 * time.Millisecond
			obs := []mc.Observer{&mc.FuncObserver{OnSnapshot: latestSnapshot.set}}
			if progress {
				obs = append(obs, cliutil.ProgressObserver(os.Stderr, "mcbench "+e.name))
			}
			opts.Observer = mc.Observers(append(obs, opts.Observer)...)
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		res, err := mc.Explore(sys, goal, opts)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return runStats{}, res, err
		}
		if res.Abort != mc.AbortNone && !(res.Abort == mc.AbortStates && e.maxStates > 0) {
			return runStats{}, res, fmt.Errorf("aborted: %s", res.Abort)
		}
		rs := runStats{
			Found:              res.Found,
			StatesExplored:     res.Stats.StatesExplored,
			StatesStored:       res.Stats.StatesStored,
			DiscreteStates:     res.Stats.DiscreteStates,
			StoreBytes:         res.Stats.StoreBytes,
			PeakMemBytes:       res.Stats.MemBytes,
			BytesPerState:      res.Stats.BytesPerStoredState(),
			AvgZoneConstraints: res.Stats.AvgZoneConstraints,
			Seconds:            elapsed.Seconds(),
			GCPauseMs:          float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6,
			Evictions:          res.Stats.Evictions,
		}
		if res.Stats.StatesExplored > 0 {
			rs.AllocsPerState = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Stats.StatesExplored)
		}
		return rs, res, nil
	}
	// Repeats are bit-identical searches (same subsumption decisions, same
	// stores), so every field except Seconds is constant across them; the
	// fastest repeat is the least-noisy timing estimate for small cases.
	run := func(compact bool) (runStats, mc.Result, error) {
		best, bestRes, err := runOnce(compact)
		if err != nil {
			return best, bestRes, err
		}
		for r := 1; r < repeat; r++ {
			rs, res, err := runOnce(compact)
			if err != nil {
				return rs, res, err
			}
			if rs.Seconds < best.Seconds {
				best, bestRes = rs, res
			}
		}
		return best, bestRes, nil
	}
	def, defRes, err := run(false)
	if err != nil {
		return benchCase{}, err
	}
	cmp, cmpRes, err := run(true)
	if err != nil {
		return benchCase{}, err
	}
	ckWrite, ckResume, resumedAgree, err := checkpointCycle(e, workers, cmp.Seconds, cmpRes)
	if err != nil {
		return benchCase{}, err
	}
	_, _, opts := e.build()
	return benchCase{
		Name:              e.name,
		Search:            opts.Search.String(),
		Default:           def,
		Compact:           cmp,
		StoreRatio:        ratio(def.StoreBytes, cmp.StoreBytes),
		PeakMemRatio:      ratio(def.PeakMemBytes, cmp.PeakMemBytes),
		TimeRatio:         def.Seconds / cmp.Seconds,
		Agree:             defRes.Found == cmpRes.Found && len(defRes.Trace) == len(cmpRes.Trace),
		CheckpointWriteMs: ckWrite,
		ResumeMs:          ckResume,
		ResumedAgree:      resumedAgree,
	}, nil
}

// checkpointCycle measures the checkpoint/resume seam on the compact
// configuration: the case runs with a checkpoint path set and is canceled
// roughly halfway through the reference duration — the abort writes the
// checkpoint — then a second run resumes it to completion. If the first
// run finishes before the deadline the checkpoint is removed on
// completion and the second run is simply a fresh one (resume_ms 0);
// that happens on the fastest cases and is harmless.
func checkpointCycle(e suiteEntry, workers int, refSeconds float64, ref mc.Result) (writeMs, resumeMs float64, agree bool, err error) {
	if _, _, opts := e.build(); opts.Search == mc.BSH {
		// The sweep-line store discards covered states and cannot be
		// checkpointed (mc.Options rejects the combination).
		return 0, 0, true, nil
	}
	dir, err := os.MkdirTemp("", "mcbench-ckpt-")
	if err != nil {
		return 0, 0, false, err
	}
	defer os.RemoveAll(dir)
	build := func() (*ta.System, mc.Goal, mc.Options) {
		sys, goal, opts := e.build()
		opts.Compact = true
		opts.Workers = workers
		opts.MaxStates = e.maxStates
		opts.Checkpoint = mc.CheckpointOptions{
			Path:   filepath.Join(dir, "case.ckpt"),
			Resume: true,
		}
		return sys, goal, opts
	}
	half := time.Duration(refSeconds / 2 * float64(time.Second))
	if half < 5*time.Millisecond {
		half = 5 * time.Millisecond
	}
	sys, goal, opts := build()
	ctx, cancel := context.WithTimeout(context.Background(), half)
	res1, err := mc.ExploreContext(ctx, sys, goal, opts)
	cancel()
	if err != nil {
		return 0, 0, false, fmt.Errorf("checkpoint run: %w", err)
	}
	writeMs = float64(res1.Stats.CheckpointTime.Nanoseconds()) / 1e6
	sys, goal, opts = build()
	res2, err := mc.ExploreContext(context.Background(), sys, goal, opts)
	if err != nil {
		return 0, 0, false, fmt.Errorf("resume run: %w", err)
	}
	resumeMs = float64(res2.Stats.ResumeTime.Nanoseconds()) / 1e6
	agree = res2.Found == ref.Found
	if workers <= 1 {
		// Sequential resume is bit-identical, witness included; parallel
		// resume only promises verdict agreement.
		agree = agree && len(res2.Trace) == len(ref.Trace)
	}
	return writeMs, resumeMs, agree, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fullSuite is the tracked benchmark trajectory: Fischer as the pure
// verification case (exhaustive, no goal found) and the guided plant at
// increasing batch counts up to the 15-batch headline instance. The
// 15-batch case is state-capped — the checker cannot exhaust it either
// way, and the capped prefix gives an exactly paired comparison (see
// suiteEntry).
func fullSuite() []suiteEntry {
	return []suiteEntry{
		fischerCase("fischer-5-bfs", 5, mc.BFS),
		jobshopCase("jobshop-besttime"),
		plantCase("plant-all-dfs-3", 3, plant.AllGuides, mc.DFS, 0),
		plantCase("plant-all-bfs-2", 2, plant.AllGuides, mc.BFS, 0),
		plantCase("plant-some-dfs-2", 2, plant.SomeGuides, mc.DFS, 0),
		plantCase("plant-all-dfs-5", 5, plant.AllGuides, mc.DFS, 0),
		plantCase("plant-all-dfs-15-capped", 15, plant.AllGuides, mc.DFS, 150_000),
	}
}

// shortSuite is the CI smoke subset: it must finish in seconds and only
// guards against the benchmark harness itself breaking, not against
// regressions.
func shortSuite() []suiteEntry {
	return []suiteEntry{
		fischerCase("fischer-4-bfs", 4, mc.BFS),
		plantCase("plant-all-dfs-3", 3, plant.AllGuides, mc.DFS, 0),
	}
}

func plantCase(name string, batches int, g plant.GuideLevel, order mc.SearchOrder, maxStates int) suiteEntry {
	return suiteEntry{name: name, maxStates: maxStates, build: func() (*ta.System, mc.Goal, mc.Options) {
		p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(batches), Guides: g})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			os.Exit(1)
		}
		opts := mc.DefaultOptions(order)
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
		return p.Sys, p.Goal, opts
	}}
}

// jobshopCase builds the 3-job/3-machine job-shop instance from
// examples/jobshop and schedules it with the BestTime order — covering the
// compact store under the best-first frontier (heap priorities are taken
// from the zone before it is released).
func jobshopCase(name string) suiteEntry {
	jobs := [][]struct {
		machine  int
		duration int32
	}{
		{{0, 3}, {1, 2}, {2, 2}},
		{{0, 2}, {2, 1}, {1, 4}},
		{{1, 4}, {2, 3}},
	}
	const numMachines = 3
	return suiteEntry{name: name, build: func() (*ta.System, mc.Goal, mc.Options) {
		sys := ta.NewSystem("jobshop")
		gt := sys.AddClock("gt")
		sys.Table.DeclareArray("mfree", numMachines, 1, 1, 1)
		sys.Table.DeclareVar("done", 0)
		for j, tasks := range jobs {
			x := sys.AddClock(fmt.Sprintf("x%d", j))
			a := sys.AddAutomaton(fmt.Sprintf("Job%d", j))
			wait := make([]int, len(tasks))
			busy := make([]int, len(tasks))
			for k, tk := range tasks {
				wait[k] = a.AddLocation(fmt.Sprintf("wait%d", k), ta.Normal)
				busy[k] = a.AddLocation(fmt.Sprintf("on%d_m%d", k, tk.machine), ta.Normal)
				a.SetInvariant(busy[k], ta.LE(x, tk.duration))
			}
			fin := a.AddLocation("done", ta.Normal)
			a.SetInit(wait[0])
			for k, tk := range tasks {
				a.Edge(wait[k], busy[k]).
					Guard(fmt.Sprintf("mfree[%d] == 1", tk.machine)).
					Assign(fmt.Sprintf("mfree[%d] := 0", tk.machine)).
					Reset(x).
					Done()
				next := fin
				if k+1 < len(tasks) {
					next = wait[k+1]
				}
				release := a.Edge(busy[k], next).
					When(ta.EQ(x, tk.duration)...).
					Assign(fmt.Sprintf("mfree[%d] := 1", tk.machine))
				if next == fin {
					release.Assign("done := done + 1")
				}
				release.Done()
			}
		}
		goal := mc.Goal{
			Desc: "all jobs finished",
			Expr: expr.MustParse(fmt.Sprintf("done == %d", len(jobs)), sys.Table),
		}
		opts := mc.DefaultOptions(mc.BestTime)
		opts.TimeClock = gt
		opts.TimeHorizon = 64
		return sys, goal, opts
	}}
}

// fischerCase builds Fischer's mutual-exclusion protocol for n processes
// (the correct variant, so the search is exhaustive — the passed list
// reaches its maximal size).
func fischerCase(name string, n int, order mc.SearchOrder) suiteEntry {
	const k = 2
	return suiteEntry{name: name, build: func() (*ta.System, mc.Goal, mc.Options) {
		sys := ta.NewSystem(fmt.Sprintf("fischer-%d", n))
		sys.Table.DeclareVar("id", 0)
		var inCS []mc.LocRequirement
		for pid := 1; pid <= n; pid++ {
			x := sys.AddClock(fmt.Sprintf("x%d", pid))
			a := sys.AddAutomaton(fmt.Sprintf("P%d", pid))
			idle := a.AddLocation("idle", ta.Normal)
			req := a.AddLocation("req", ta.Normal)
			wait := a.AddLocation("wait", ta.Normal)
			cs := a.AddLocation("cs", ta.Normal)
			a.SetInvariant(req, ta.LE(x, k))
			a.SetInit(idle)
			a.Edge(idle, req).Guard("id == 0").Reset(x).Done()
			a.Edge(req, wait).Assign(fmt.Sprintf("id := %d", pid)).Reset(x).Done()
			a.Edge(wait, cs).When(ta.GT(x, k)).Guard(fmt.Sprintf("id == %d", pid)).Done()
			a.Edge(wait, req).Guard("id == 0").Reset(x).Done()
			a.Edge(cs, idle).Assign("id := 0").Done()
			inCS = append(inCS, mc.LocRequirement{Automaton: pid - 1, Location: cs})
		}
		goal := mc.Goal{Desc: "mutual exclusion violated", Locs: inCS[:2]}
		return sys, goal, mc.DefaultOptions(order)
	}}
}
