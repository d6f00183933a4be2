// Command perfbench is the repository's benchmark: one command that runs a
// workload against the public packages of the checker, the synthesis
// pipeline and the synthesis server, checks every output, and prints its
// metrics by name and unit. See README.md for the workloads, the metrics
// and how they were chosen.
//
//	bash perfbench/run.sh --workload synth-plant --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run alternates untraced and
// traced operations and reports the per-layer metrics instead, writing its
// spans, per-layer self times and CPU-profile package shares to a file
// under .bench_build/trace. A wrong answer exits non-zero without a result
// line.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workload is one benchmark scenario.
type workload interface {
	// setup builds the inputs and warms up. It is timed, and run calls it
	// several times over the run on fresh values; the operations after
	// each call use its value.
	setup(ctx context.Context) error
	// reps is how many operations a run of about seconds measures.
	reps(seconds float64) int
	// op runs one measured operation; tr is nil for an untraced one. An
	// error is a wrong answer and fails the whole run.
	op(ctx context.Context, tr *tracer, req int) (opResult, error)
	// layers derives the per-layer metrics of the traced operations.
	layers(spans []span, traced []opResult) map[string]float64
}

// opResult is what one operation reports.
type opResult struct {
	wall        time.Duration   // the measured part, without the output checks
	counters    runtimeCounters // runtime counter deltas over the same part
	latenciesMS []float64       // one per request; in-process workloads have one
	partWalls   []float64       // seconds per independent part, if the operation has parts
	searchMem   int64           // engine-accounted peak search memory
	attempted   int
	failed      int
	detail      any          // workload-specific data for layers
	check       func() error // verifies the outputs; a failure is a wrong answer
}

// stopwatch measures wall time and runtime counters over a part of an
// operation.
type stopwatch struct {
	start time.Time
	c0    runtimeCounters
}

func startWatch() stopwatch { return stopwatch{c0: readCounters(), start: time.Now()} }

// stop records the elapsed time and counter deltas into r.
func (s stopwatch) stop(r *opResult) {
	r.wall = time.Since(s.start)
	r.counters = readCounters().sub(s.c0)
}

// repsFor is the number of operations of about nominal seconds each that
// fill a run of seconds (at least four, so a traced run has two of each
// kind).
func repsFor(seconds, nominal float64) int {
	return max(4, int(math.Round(seconds/nominal)))
}

var workloads = map[string]func(seed int64) workload{
	"synth-plant":    newSynthPlant,
	"verify-fischer": newVerifyFischer,
	"serve-resynth":  newServeResynth,
}

// setupRuns is how many times setup runs; setup_s is their median.
const setupRuns = 5

// traceDir is where a traced run writes its spans, relative to the
// repository root.
const traceDir = ".bench_build/trace"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: synth-plant, verify-fischer or serve-resynth")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 30, "about how long the measured operations run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	res, err := run(context.Background(), *name, *seed, mk, *seconds, *traced == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func run(ctx context.Context, name string, seed int64, mk func(int64) workload, seconds float64, traced bool) (*result, error) {
	// Setup runs setupRuns times, spread over the run, each time on a fresh
	// value that the operations after it use; setup_s is their median. A
	// slow stretch of the host at the start of the run then does not decide
	// it.
	var w workload
	var setupS []float64
	setup := func() error {
		w = mk(seed)
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		return nil
	}

	reps := mk(seed).reps(seconds)
	every := max(1, reps/setupRuns)
	var untraced, tracedOps []opResult
	var wallU, wallT, allocMB, rssMB []float64
	var latencies, parts [][]float64
	var spans []span
	var phase runtimeCounters // over the operations, setups excluded
	prof := newCPUProfile()
	for i := 0; i < reps; i++ {
		if i%every == 0 && len(setupS) < setupRuns {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		traceThis := traced && i%2 == 1
		runtime.GC()
		c0 := readCounters()
		var tr *tracer
		var buf bytes.Buffer
		if traceThis {
			tr = newTracer()
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
		}
		rssReset := resetPeakRSS() == nil
		r, err := w.op(ctx, tr, i)
		if traceThis {
			pprof.StopCPUProfile()
		}
		phase = phase.add(readCounters().sub(c0))
		if err == nil && rssReset && !traceThis {
			var rss int64
			rss, err = peakRSSBytes()
			rssMB = append(rssMB, float64(rss)/mib)
		}
		if err == nil && r.check != nil {
			err = r.check()
		}
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", i, err)
		}
		wall := r.wall.Seconds()
		allocated := float64(r.counters.allocBytes) / mib
		if traceThis {
			if err := prof.add(buf.Bytes()); err != nil {
				return nil, err
			}
			spans = append(spans, tr.snapshot()...)
			tracedOps = append(tracedOps, r)
			wallT = append(wallT, wall)
			continue
		}
		untraced = append(untraced, r)
		wallU = append(wallU, wall)
		if r.partWalls == nil {
			r.partWalls = []float64{wall}
		}
		parts = append(parts, r.partWalls)
		allocMB = append(allocMB, allocated)
		latencies = append(latencies, r.latenciesMS)
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %.3fs, %.1f MB allocated, p50 %.3f ms, p90 %.3f ms\n",
			name, i, wall, allocated, median(r.latenciesMS), percentile(r.latenciesMS, 0.9))
	}
	for len(setupS) < setupRuns { // a run of fewer operations than setups
		if err := setup(); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range append(untraced, tracedOps...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if !traced {
		if len(rssMB) == 0 {
			// The high-water mark cannot be reset here: report the whole
			// process's, setup included.
			rss, err := peakRSSBytes()
			if err != nil {
				return nil, err
			}
			rssMB = []float64{float64(rss) / mib}
		}
		p50, p90, supported := latencyPercentiles(latencies)
		if !supported {
			// No tail percentile has enough samples beyond it: report the
			// median rather than a tail the run cannot support.
			p90 = p50
			fmt.Fprintf(os.Stderr, "perfbench: fewer than %d latency samples lie beyond p90; latency_p90_ms reports the median\n", minBeyond)
		}
		mem := make([]float64, len(untraced))
		for i, r := range untraced {
			mem[i] = float64(r.searchMem) / mib
		}
		set := func(k string, v float64) { res.Metrics[k] = metricValue{v, endToEndUnits[k]} }
		set("setup_s", median(setupS))
		set("wall_s", fastestWall(parts))
		set("latency_p50_ms", p50)
		set("latency_p90_ms", p90)
		set("search_mem_mb", median(mem))
		set("alloc_mb", median(allocMB))
		set("peak_rss_mb", median(rssMB))
		set("failed_ratio", failedRatio(res.Failed, res.Attempted))
		return res, nil
	}

	lm := w.layers(spans, tracedOps)
	shares := prof.shares()
	lm["dbm.cpu_share"] = shares["guidedta/internal/dbm"]
	lm["runtime.gc_cpu_share"] = ratio(phase.gcCPU, phase.totalCPU)
	lm["trace.overhead_s"] = mean(wallT) - mean(wallU)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{lm[m.name], m.unit}
	}
	selfMS := make(map[string]float64)
	for l, d := range layerSelfTimes(spans) {
		selfMS[l] = d.Seconds() * 1000
	}
	tf := &traceFile{
		Workload:      name,
		Seed:          seed,
		WallUntracedS: mean(wallU),
		WallTracedS:   mean(wallT),
		OverheadS:     lm["trace.overhead_s"],
		SelfMS:        selfMS,
		CPUShares:     shares,
		GCCPUShare:    lm["runtime.gc_cpu_share"],
		Metrics:       lm,
		Spans:         spans,
	}
	path, err := tf.write(traceDir)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s; tracing overhead %+.3fs on a %.3fs operation\n",
		path, tf.OverheadS, tf.WallUntracedS)
	printShares(shares)
	return res, nil
}

func printShares(shares map[string]float64) {
	pkgs := make([]string, 0, len(shares))
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	for i, p := range pkgs {
		if i == 8 {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: cpu %5.1f%% %s\n", 100*shares[p], p)
	}
}

var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"search_mem_mb":  "MB",
	"alloc_mb":       "MB",
	"peak_rss_mb":    "MB",
	"failed_ratio":   "1",
}

// perLayer lists every per-layer metric a traced run reports. A layer a
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"plant.build_ms", "ms"},
	{"tadsl.parse_ms", "ms"},
	{"tadsl.hash_ms", "ms"},
	{"mc.explore_s", "s"},
	{"mc.states_per_s", "1/s"},
	{"mc.states_explored", "count"},
	{"mc.transitions", "count"},
	{"mc.states_stored", "count"},
	{"mc.evictions", "count"},
	{"mc.accept_ratio", "1"},
	{"mc.evict_ratio", "1"},
	{"mc.peak_waiting", "count"},
	{"mc.store_mb", "MB"},
	{"mc.allocs_per_state", "count"},
	{"mc.concretize_ms", "ms"},
	{"dbm.cpu_share", "1"},
	{"snapshot.files", "count"},
	{"snapshot.dir_mb", "MB"},
	{"snapshot.load_ms", "ms"},
	{"serve.admit_ms", "ms"},
	{"serve.search_share", "1"},
	{"serve.cache_hit_ratio", "1"},
	{"serve.warm_hit_ratio", "1"},
	{"serve.latency_warm_p50_ms", "ms"},
	{"serve.latency_cold_p50_ms", "ms"},
	{"serve.latency_hit_p50_ms", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.workers_busy_share", "1"},
	{"serve.throttled", "count"},
	{"schedule.project_ms", "ms"},
	{"synth.program_ms", "ms"},
	{"synth.instructions", "count"},
	{"sim.run_ms", "ms"},
	{"runtime.gc_cpu_share", "1"},
	{"trace.overhead_s", "s"},
}
