// Command mcserved is the synthesis service: a long-running HTTP/JSON
// model-checking and schedule-synthesis server (internal/serve) wrapping
// the engine for repeated queries.
//
// Usage:
//
//	mcserved [-addr localhost:8080] [-workers N] [-queue N]
//	         [-job-timeout 5m] [-drain-timeout 30s] [-cache N] [-pprof]
//
// Submit a model and wait for the report:
//
//	curl -s -XPOST --data @req.json 'http://localhost:8080/v1/jobs?wait=1'
//
// where req.json is {"model": "<tadsl source>", "options": {"search":
// "bfs"}} or {"plant": {"batches": 4}, "options": {"search": "dfs"}}.
// Run automatic guide discovery on a plant instance:
//
//	curl -s -XPOST 'http://localhost:8080/v1/discover?wait=1' \
//	  -d '{"plant": {"batches": 2}, "budget": {"probe_states": 25000}, "seed": 1}'
//
// GET /v1/jobs/{id}/events streams live progress as server-sent events;
// /v1/status and the mcserve expvar (on /debug/vars with -pprof) expose
// queue depth, cache hit rate, and per-worker state. SIGINT/SIGTERM
// triggers a graceful drain: admission stops, in-flight jobs finish
// (or are canceled after -drain-timeout), final reports are flushed,
// and the process exits 0.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"guidedta/internal/cliutil"
	"guidedta/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		workers      = flag.Int("workers", 0, "search worker pool size (0 = NumCPU)")
		queueDepth   = flag.Int("queue", 64, "per-tenant admission queue depth (a full queue answers 429); tenancy from the X-Tenant header")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job search deadline (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits before canceling in-flight jobs")
		cacheSize    = flag.Int("cache", 256, "result cache entries")
		snapshot     = flag.Duration("snapshot-every", 250*time.Millisecond, "progress snapshot interval for event streams and reports")
		pprofAddr    = flag.String("pprof", "", "also serve net/http/pprof and expvar on this address, e.g. localhost:6060")
		quiet        = flag.Bool("quiet", false, "suppress per-job log lines")
		ckptDir      = flag.String("checkpoint-dir", "", "make running jobs durable: write resumable search checkpoints (keyed by cache key) here on drain/timeout aborts, and resume them on resubmission — also after a restart")
		ckptEvery    = flag.Duration("checkpoint-every", 0, "additionally checkpoint running jobs at this cadence (0 = abort-time only; requires -checkpoint-dir)")
		warmStart    = flag.Bool("warm-start", false, "keep the witness path of every search that found its goal as a final checkpoint and replay these witnesses on nearby models, searching cold when none replays (requires -checkpoint-dir)")
		tenantWeight = flag.String("tenant-weights", "", "weighted-fair shares as tenant=weight,... (absent tenants weigh 1)")
		ckptGCAge    = flag.Duration("checkpoint-gc-age", 24*time.Hour, "delete checkpoint files older than this")
		ckptGCMax    = flag.Int("checkpoint-gc-max", 1024, "keep at most this many checkpoint files")
		ckptGCEvery  = flag.Duration("checkpoint-gc-every", 5*time.Minute, "period of the background checkpoint GC sweep (GC also runs at startup, drain, and on count overflow)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "mcserved: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			logger.Printf("checkpoint dir: %v", err)
			os.Exit(1)
		}
	}
	if *warmStart && *ckptDir == "" {
		logger.Printf("-warm-start requires -checkpoint-dir")
		os.Exit(1)
	}
	weights, err := parseTenantWeights(*tenantWeight)
	if err != nil {
		logger.Printf("bad -tenant-weights: %v", err)
		os.Exit(1)
	}
	srv := serve.New(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		TenantWeights:     weights,
		JobTimeout:        *jobTimeout,
		SnapshotEvery:     *snapshot,
		CacheSize:         *cacheSize,
		CheckpointDir:     *ckptDir,
		CheckpointEvery:   *ckptEvery,
		WarmStart:         *warmStart,
		CheckpointGCAge:   *ckptGCAge,
		CheckpointGCMax:   *ckptGCMax,
		CheckpointGCEvery: *ckptGCEvery,
		Logf:              logf,
	})
	expvar.Publish("mcserve", srv.StatusVar())
	if *pprofAddr != "" {
		// The default mux carries /debug/pprof/* (imported above) and
		// /debug/vars including the mcserve status published right above.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
		logger.Printf("pprof/expvar at http://%s/debug/pprof and /debug/vars", *pprofAddr)
	}

	httpServer := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	logger.Printf("serving on http://%s (workers %d, queue %d)", *addr, *workers, *queueDepth)

	ctx, stop := cliutil.SignalContext()
	defer stop()
	select {
	case err := <-errc:
		logger.Printf("listen: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting, finish or cancel in-flight jobs,
	// then close the listener. A second signal kills the process (the
	// SignalContext has restored default disposition by now).
	logger.Printf("signal received, draining (timeout %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpServer.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	st := srv.Status()
	fmt.Fprintf(os.Stderr, "mcserved: drained cleanly (%d executions, cache hit rate %.2f)\n",
		st.ExecutionsFinished, st.Cache.HitRate)
}

// parseTenantWeights parses "tenant=weight,tenant=weight" into the
// serve.Config map; an empty spec means every tenant weighs 1.
func parseTenantWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not tenant=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight %q must be a positive integer", val)
		}
		out[name] = w
	}
	return out, nil
}
