// Package serve is the synthesis service: a long-running HTTP/JSON server
// wrapping the model checker and the guided-synthesis pipeline for
// repeated queries. It composes the seams the library already provides —
// re-entrant mc.ExploreContext searches, canonical tadsl.Hash model
// identity, Observer progress snapshots — into a serving layer:
//
//   - Clients POST a tadsl model or a named plant configuration with
//     search options to /v1/jobs, or a plant instance to /v1/discover for
//     automatic guide discovery (internal/guide). Jobs are admitted
//     through a bounded queue (429 + Retry-After when full) and run on a
//     fixed worker pool with per-job deadlines; DELETE /v1/jobs/{id}
//     cancels a job.
//   - Work is deduplicated through a content-addressed result cache keyed
//     by the model's canonical sha256 plus the normalized options:
//     concurrent identical queries coalesce onto one underlying
//     exploration (singleflight) and later hits return the cached report
//     without searching at all.
//   - Live progress rides the Observer/Snapshot seam: GET
//     /v1/jobs/{id}/events streams periodic snapshots (and, for discover
//     jobs, per-probe guide-search events) as server-sent events, and
//     /v1/status exposes queue depth, cache hit rate, and per-worker
//     state (also available as an expvar via StatusVar).
//   - Drain stops admission and finishes or cancels in-flight jobs so
//     SIGTERM lands as a clean shutdown with every final report flushed.
//
// Completed jobs return the schema-validated JSON run report of
// internal/cliutil, plus the projected schedule and RCX control program
// for plant queries.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/cliutil"
	"guidedta/internal/core"
	"guidedta/internal/guide"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/snapshot"
	"guidedta/internal/synth"
	"guidedta/internal/tadsl"
)

// Config tunes the service. The zero value serves with sensible defaults;
// see the field comments for what zero means per knob.
type Config struct {
	// Workers is the search worker pool size (default runtime.NumCPU).
	// Each worker runs one job at a time; a job's own mc.Options.Workers
	// parallelism nests inside it.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A POST that
	// finds the queue full is rejected with 429 and a Retry-After header
	// instead of queueing unboundedly. With multi-tenant admission the
	// bound is per tenant: QueueDepth is the default per-tenant quota
	// (see TenantQuota), so one flooding tenant's 429s never ration
	// another tenant's headroom.
	QueueDepth int
	// TenantQuota overrides the per-tenant queued-execution quota
	// (default QueueDepth). Tenancy comes from the X-Tenant request
	// header; requests without one share the default tenant "".
	TenantQuota int
	// TenantWeights gives named tenants a weighted-fair share of the
	// worker pool: a tenant with weight w is offered w queue slots per
	// round-robin round. Absent tenants (and the default tenant) weigh 1.
	TenantWeights map[string]int
	// JobTimeout caps every job's search wall-clock time (0 = no cap). A
	// tighter per-request timeout in the submitted options still applies.
	JobTimeout time.Duration
	// SnapshotEvery is the progress sampling interval for event streams
	// and reports (default 250ms).
	SnapshotEvery time.Duration
	// CacheSize bounds the completed-result cache entries (default 256;
	// eviction is oldest-first). The memo of resolved model identities
	// that keys repeated requests without rebuilding their models has the
	// same bound.
	CacheSize int
	// MaxJobs bounds retained job records (default 4096; finished jobs are
	// evicted oldest-first beyond it).
	MaxJobs int
	// CheckpointDir, when set, makes running jobs durable: every model and
	// plant execution writes a resumable search checkpoint (keyed by its
	// content-addressed cache key) into this directory whenever it is
	// aborted — a JobTimeout expiry or a drain cancellation — and
	// resubmitting the same query, including to a freshly restarted
	// server, resumes the search from that file instead of starting over.
	// Checkpoints are removed once the search completes with an answer.
	// Empty disables durability. Discover jobs and BSH searches (whose bit
	// table stores only hashes) run without checkpoints.
	CheckpointDir string
	// CheckpointEvery additionally writes periodic checkpoints at this
	// cadence while a job runs (0 = abort-time checkpoints only), bounding
	// the work lost to a hard kill rather than a clean drain.
	CheckpointEvery time.Duration
	// WarmStart (requires CheckpointDir) keeps every completed search's
	// final snapshot on disk and uses those snapshots to seed later
	// searches of nearby models: a query whose plant kind and options
	// match a kept snapshot but whose model hash differs (a re-synthesis
	// after a disturbance) starts from the prior run's re-validated state
	// space instead of from scratch. Soundness is the engine's problem —
	// see mc.WarmStartOptions — and the server additionally reruns cold
	// whenever a cross-model warm start returns a negative or fails replay
	// validation, so warm starts can change latency but never answers.
	WarmStart bool
	// CheckpointGCAge and CheckpointGCMax bound the checkpoint directory:
	// checkpoint files older than GCAge (default 24h) or beyond the GCMax
	// newest (default 1024) are deleted, except files referenced by
	// in-flight executions. GC runs at startup, after a drain, every
	// CheckpointGCEvery while the server is up, and whenever recording a
	// kept final snapshot pushes the file count past GCMax — so a
	// long-lived server that never drains stays bounded too. Without GC,
	// evicted cache keys would leak their checkpoint files forever.
	CheckpointGCAge time.Duration
	CheckpointGCMax int
	// CheckpointGCEvery is the period of the background checkpoint GC
	// sweep (default 5m).
	CheckpointGCEvery time.Duration
	// Logf, when set, receives one line per lifecycle event (admission,
	// completion, drain). Nil means silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 250 * time.Millisecond
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = c.QueueDepth
	}
	if c.CheckpointGCAge <= 0 {
		c.CheckpointGCAge = 24 * time.Hour
	}
	if c.CheckpointGCMax <= 0 {
		c.CheckpointGCMax = 1024
	}
	if c.CheckpointGCEvery <= 0 {
		c.CheckpointGCEvery = 5 * time.Minute
	}
	return c
}

// Server is the synthesis service. Create with New, mount Handler on an
// http.Server, and call Drain before exit.
type Server struct {
	cfg   Config
	queue *queue
	cache *cache
	memo  *memo
	jobs  *registry
	warm  *warmIndex // nil unless Config.WarmStart

	workers []workerState

	draining atomic.Bool
	started  atomic.Int64 // executions handed to ExploreContext/Synthesize
	finished atomic.Int64 // executions completed (any outcome)
	skipped  atomic.Int64 // canceled-while-queued executions settled unrun
	warmHits atomic.Int64 // executions that actually warm-started

	gcMu      sync.Mutex    // serializes gcCheckpoints sweeps
	ckptFiles atomic.Int64  // approximate checkpoint-file count (resynced by each sweep)
	gcStop    chan struct{} // closes on Drain to stop the background GC sweep

	drainOnce sync.Once
}

// workerState is one worker's live status for /status.
type workerState struct {
	mu    sync.Mutex
	key   string // cache key of the running execution ("" when idle)
	since time.Time
}

func (w *workerState) set(key string) {
	w.mu.Lock()
	w.key, w.since = key, time.Now()
	w.mu.Unlock()
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheSize),
		memo:    newMemo(cfg.CacheSize),
		jobs:    newRegistry(cfg.MaxJobs),
		workers: make([]workerState, cfg.Workers),
	}
	s.queue = newQueue(cfg.TenantQuota, cfg.TenantWeights)
	if cfg.CheckpointDir != "" {
		s.gcCheckpoints()
		if cfg.WarmStart {
			s.warm = newWarmIndex()
			n := s.warm.scan(cfg.CheckpointDir)
			s.logf("warm start: indexed %d checkpoint(s)", n)
		}
		s.gcStop = make(chan struct{})
		go s.gcLoop()
	}
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// worker pulls executions off the queue and runs them until Drain stops
// the pool.
func (s *Server) worker(i int) {
	ws := &s.workers[i]
	for {
		ex, ok := s.queue.pop()
		if !ok {
			return
		}
		if ex.ctx.Err() != nil && !ex.running.Load() {
			// Canceled while still queued: every attached job withdrew
			// before a worker got here. Running the search just to have it
			// abort on its first limit check would burn this worker slot for
			// nobody — settle the execution as canceled instead, which also
			// publishes the final event so SSE subscribers don't hang.
			s.settleCanceled(ex)
			s.queue.wg.Done()
			continue
		}
		ws.set(ex.key)
		s.run(ex)
		ws.set("")
		s.queue.wg.Done()
	}
}

// settleCanceled settles a canceled-while-queued execution without
// running it: the outcome is AbortCanceled with a minimal report, every
// still-attached job completes, and ex.done closes so waiters and event
// streams observe the end of the lifecycle exactly as they would for a
// search that ran and was stopped.
func (s *Server) settleCanceled(ex *execution) {
	s.skipped.Add(1)
	out := &outcome{abort: mc.AbortCanceled}
	if !ex.isDiscover {
		rep := cliutil.NewReport("mcserved")
		run := rep.Run("canceled before start")
		if ex.resolve() == nil {
			run.SetModel(ex.sys, &ex.goal, ex.modelSHA)
		}
		run.SetOptions(ex.opts)
		run.SetResult(mc.Result{Abort: mc.AbortCanceled})
		out.report = run
	}
	jobs := s.cache.settle(ex, out)
	for _, j := range jobs {
		j.complete(out)
	}
	close(ex.done)
	s.logf("exec %s: skipped (canceled while queued, %d job(s))", shortKey(ex.key), len(jobs))
}

// submit admits one decoded request: it resolves the model, computes the
// content-addressed key, and either returns a cached outcome, coalesces
// onto an identical in-flight execution, or enqueues a new one. The
// returned job is registered; err is an admissionError for client
// mistakes and queue overflow.
func (s *Server) submit(req *SubmitRequest) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	ex, err := s.buildExecution(req)
	if err != nil {
		return nil, err
	}
	return s.place(ex)
}

// submitDiscover admits one decoded guide-discovery request; admission
// semantics (cache, coalescing, queue bounds) match submit.
func (s *Server) submitDiscover(req *DiscoverRequest) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	ex, err := s.buildDiscover(req)
	if err != nil {
		return nil, err
	}
	return s.place(ex)
}

// place registers a job for a built execution and resolves it against the
// cache: hit, coalesce, or enqueue.
func (s *Server) place(ex *execution) (*Job, error) {
	job := s.jobs.create()
	job.Query = ex.query
	job.ModelSHA256 = ex.modelSHA
	job.Key = ex.key

	out, attached, coalesced := s.cache.admit(ex, job)
	switch {
	case out != nil:
		job.CacheState = CacheHit
		job.complete(out)
		s.logf("job %s: cache hit (%s)", job.ID, shortKey(ex.key))
	case coalesced:
		job.CacheState = CacheCoalesced
		job.exec = attached
		if attached.running.Load() {
			job.setState(JobRunning)
		}
		s.logf("job %s: coalesced onto %s", job.ID, shortKey(ex.key))
	default:
		job.CacheState = CacheMiss
		job.exec = ex
		if !s.queue.tryPush(ex) {
			// Admission control: undo the in-flight registration and
			// reject; the job record never becomes visible. The 429 names
			// the tenant whose quota is exhausted — other tenants' slots
			// are untouched.
			s.cache.abandon(ex)
			s.jobs.remove(job.ID)
			return nil, errQueueFullFor(ex.tenant)
		}
		s.logf("job %s: queued (%s, tenant %q)", job.ID, shortKey(ex.key), ex.tenant)
	}
	return job, nil
}

// buildExecution resolves a request into a runnable execution with its
// content-addressed key. The model's identity is resolved at admission so
// bad requests fail with a 400 before consuming a queue slot; see
// identify for when that needs the model itself.
func (s *Server) buildExecution(req *SubmitRequest) (*execution, error) {
	opts, err := req.Options.resolve(serveDefaults())
	if err != nil {
		return nil, badRequestf("bad options: %v", err)
	}
	if s.cfg.JobTimeout > 0 && (opts.Timeout == 0 || opts.Timeout > s.cfg.JobTimeout) {
		opts.Timeout = s.cfg.JobTimeout
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = s.cfg.SnapshotEvery
	}

	ex := &execution{done: make(chan struct{})}
	ex.ctx, ex.cancel = context.WithCancel(context.Background())
	ex.tenant = req.tenant
	ex.resynth = req.Resynthesis

	var id string
	switch {
	case req.Model != "" && req.Plant != nil:
		return nil, badRequestf("give either a tadsl model or a plant configuration, not both")
	case req.Model != "":
		ex.src = req.Model
		id = modelIdentity(req.Model)
	case req.Plant != nil:
		cfg, err := req.Plant.resolve()
		if err != nil {
			return nil, badRequestf("bad plant configuration: %v", err)
		}
		ex.plantCfg, ex.isPlant = cfg, true
		id = plantIdentity(cfg)
	default:
		return nil, badRequestf("request needs a tadsl model or a plant configuration")
	}
	res, err := s.identify(ex, id)
	if err != nil {
		return nil, err
	}
	if ex.isPlant && opts.Search == mc.BestTime {
		// Same wiring as cmd/plantsynth: best-first time order needs
		// the plant's global clock and a horizon it stays observable to.
		opts.TimeClock = res.timeClock
		opts.TimeHorizon = ex.plantCfg.TimeHorizon()
	}
	if err := opts.Validate(); err != nil {
		return nil, badRequestf("bad options: %v", err)
	}
	ex.opts = opts
	kind := "model"
	if ex.isPlant {
		kind = "plant"
	}
	ex.key = cacheKey(kind, ex.modelSHA, opts)
	return ex, nil
}

// identify sets ex's model identity (sha and query) and returns it. A
// request found in the memo (id) is identified without building, parsing
// or hashing its model, so cache hits and coalesces never resolve one.
// Otherwise the model is resolved once — left on ex for dispatch — and
// hashed, and the identity enters the memo.
func (s *Server) identify(ex *execution, id string) (resolution, error) {
	res, ok := s.memo.get(id)
	if !ok {
		if err := ex.resolve(); err != nil {
			return res, err
		}
		sha, err := tadsl.Hash(ex.sys, &ex.goal)
		if err != nil {
			return res, badRequestf("model cannot be serialized: %v", err)
		}
		res = resolution{sha: sha, query: ex.goal.String()}
		if ex.plant != nil {
			res.timeClock = ex.plant.GlobalClock
		}
		if id != "" {
			s.memo.add(id, res)
		}
	}
	ex.modelSHA, ex.query = res.sha, res.query
	return res, nil
}

// buildDiscover resolves a guide-discovery request. The content address
// is the unguided plant model's hash (the instance identity — the search
// owns the guide selection) plus the oracle options, with the effective
// budget and seed folded into the kind so different search extents never
// alias.
func (s *Server) buildDiscover(req *DiscoverRequest) (*execution, error) {
	if req.Plant == nil {
		return nil, badRequestf("discover needs a plant configuration")
	}
	opts, err := req.Options.resolve(serveDefaults())
	if err != nil {
		return nil, badRequestf("bad options: %v", err)
	}
	cfg, err := req.Plant.resolve()
	if err != nil {
		return nil, badRequestf("bad plant configuration: %v", err)
	}
	cfg.Guides, cfg.GuideSet = plant.NoGuides, nil
	if err := opts.Validate(); err != nil {
		return nil, badRequestf("bad options: %v", err)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = s.cfg.SnapshotEvery
	}

	ex := &execution{done: make(chan struct{})}
	ex.ctx, ex.cancel = context.WithCancel(context.Background())
	ex.tenant = req.tenant
	ex.isDiscover = true
	ex.plantCfg = cfg
	ex.budget = req.budget()
	ex.seed = req.Seed
	ex.opts = opts
	if _, err := s.identify(ex, plantIdentity(cfg)); err != nil {
		return nil, err
	}
	kind := fmt.Sprintf("discover|seed=%d|probes=%d|states=%d",
		ex.seed, ex.budget.MaxProbes, ex.budget.ProbeStates)
	ex.key = cacheKey(kind, ex.modelSHA, opts)
	return ex, nil
}

// run executes one admitted execution on a worker and publishes its
// outcome to the cache and every attached job. It never panics the worker:
// pipeline errors become failed outcomes.
func (s *Server) run(ex *execution) {
	ex.running.Store(true)
	for _, j := range ex.jobsNow() {
		j.setState(JobRunning)
	}
	s.started.Add(1)
	out := s.execute(ex)
	s.finished.Add(1)

	jobs := s.cache.settle(ex, out)
	for _, j := range jobs {
		j.complete(out)
	}
	close(ex.done)
	s.logf("exec %s: %s (%d job(s))", shortKey(ex.key), out.describe(), len(jobs))
}

// execute runs the search (or the full synthesis pipeline for plant jobs)
// under the execution's cancellation context, filling a run report through
// the same observer seam the CLI tools use.
func (s *Server) execute(ex *execution) *outcome {
	if ex.isDiscover {
		return s.executeDiscover(ex)
	}
	if err := ex.resolve(); err != nil {
		return &outcome{err: err}
	}
	rep := cliutil.NewReport("mcserved")
	name := "model"
	if ex.isPlant {
		name = fmt.Sprintf("plant %d batches, %s guides", len(ex.plantCfg.Qualities), ex.plantCfg.Guides)
	}
	run := rep.Run(name)
	run.SetModel(ex.sys, &ex.goal, ex.modelSHA)
	run.SetOptions(ex.opts)

	opts := ex.opts
	// engineRes captures the engine's own Result — the plant pipeline
	// reports negatives and aborts as errors, losing the mc.Result that
	// says whether the search actually warm-started (retryCold needs it).
	var engineRes mc.Result
	opts.Observer = mc.Observers(
		run.Observer(),
		&mc.FuncObserver{OnSnapshot: ex.publish, OnDone: func(r mc.Result) { engineRes = r }},
		opts.Observer,
	)

	// Durability: checkpoint under the content-addressed cache key, so the
	// file a drained or timed-out run leaves behind is found by exactly the
	// resubmissions that would have hit its cache entry — including on a
	// freshly restarted server whose in-memory cache is empty.
	kind := "model"
	if ex.isPlant {
		kind = "plant"
	}
	var ckptPath, warmFrom, warmGroupKey string
	if s.cfg.CheckpointDir != "" && opts.Search != mc.BSH {
		ckptPath = filepath.Join(s.cfg.CheckpointDir, ex.key+".ckpt")
		opts.Checkpoint = mc.CheckpointOptions{
			Path:     ckptPath,
			Interval: s.cfg.CheckpointEvery,
			Resume:   true,
			ModelSHA: ex.modelSHA,
			Meta:     kind,
		}
		if s.cfg.WarmStart {
			opts.Checkpoint.KeepFinal = true
			if canon, err := opts.CanonicalJSON(); err == nil {
				warmGroupKey = warmGroup(kind, canon)
			}
			if hdr, err := snapshot.ReadHeader(ckptPath); err == nil && hdr.Final {
				// The exact key already has a final snapshot (a completed
				// run, e.g. before a restart emptied the result cache).
				// Resume would refuse it — a final checkpoint's frontier
				// must not be replayed exactly (see mc.CheckpointOptions
				// KeepFinal) — so seed a warm start from it instead.
				opts.Checkpoint.Resume = false
				opts.WarmStart.Path = ckptPath
				warmFrom = ex.key
			} else if s.warm != nil && warmGroupKey != "" {
				// Near-miss: another key with the same kind and options —
				// a different model, i.e. a disturbed re-synthesis — left
				// a final snapshot to seed from.
				if seed := s.warm.lookup(warmGroupKey, ex.key); seed != "" {
					opts.WarmStart.Path = filepath.Join(s.cfg.CheckpointDir, seed+".ckpt")
					warmFrom = seed
				}
			}
		}
	}
	// retryFresh handles a poisoned checkpoint (corrupt file, stale format,
	// options drift): delete it and let the caller rerun from scratch —
	// durability must never make a query unanswerable.
	retryFresh := func(err error) bool {
		if ckptPath == "" || !errors.Is(err, mc.ErrResume) {
			return false
		}
		s.logf("exec %s: checkpoint unusable (%v); restarting fresh", shortKey(ex.key), err)
		os.Remove(ckptPath)
		return true
	}
	// retryCold decides whether a warm-started outcome must be re-derived
	// cold: always when the engine flags a replay-invalid witness
	// (mc.ErrWarmStart), and for any cross-model seed whose search ended
	// negative or failed — a foreign model's state space may subsume zones
	// this model would have explored further, so only a cold run may
	// report "not satisfied". The retry is gated on the engine actually
	// having seeded something (res.WarmStarted): a missing or unusable
	// seed file, or one whose states were all dropped by re-validation,
	// means the search already ran cold and rerunning it would just repeat
	// the identical work. Seeding from the query's own
	// key is exempt (the seeded zones are genuinely this model's), and
	// canceled or limit-aborted searches are service outcomes either way.
	// Warm starts change latency, never answers.
	retryCold := func(err error, res mc.Result) bool {
		if opts.WarmStart.Path == "" {
			return false
		}
		if errors.Is(err, mc.ErrWarmStart) {
			return true
		}
		if warmFrom == ex.key || res.Abort != mc.AbortNone {
			return false
		}
		if !res.WarmStarted {
			return false
		}
		return err != nil || !res.Found
	}
	goCold := func() {
		s.logf("exec %s: warm start from %s not conclusive; rerunning cold", shortKey(ex.key), shortKey(warmFrom))
		opts.WarmStart = mc.WarmStartOptions{}
		// The warm attempt left its kept-final snapshot at ckptPath, which
		// the engine refuses to resume from; the cold run starts fresh.
		opts.Checkpoint.Resume = false
		warmFrom = ""
	}
	// recordWarm publishes a cleanly completed search's final snapshot to
	// the warm index so later near-miss queries can seed from it, and
	// sweeps the checkpoint directory when the kept files have grown past
	// the GC bound (the count is approximate; the sweep resyncs it).
	recordWarm := func() {
		if s.warm != nil && opts.Checkpoint.KeepFinal && warmGroupKey != "" {
			s.warm.record(ex.key, warmGroupKey)
			if s.ckptFiles.Add(1) > int64(s.cfg.CheckpointGCMax) {
				s.gcCheckpoints()
			}
		}
	}

	out := &outcome{report: run}
	if ex.isPlant {
		res, err := core.SynthesizePlant(ex.ctx, ex.plant, opts, synth.Options{})
		if err != nil && retryFresh(err) {
			res, err = core.SynthesizePlant(ex.ctx, ex.plant, opts, synth.Options{})
		}
		if retryCold(err, engineRes) {
			goCold()
			res, err = core.SynthesizePlant(ex.ctx, ex.plant, opts, synth.Options{})
		}
		if err != nil {
			// An unreachable goal or an aborted search surfaces as an
			// error from the pipeline; the report still carries the search
			// statistics through the observer. Cancellation and limits are
			// expected service outcomes, not failures.
			out.abort = mc.AbortReason(run.Result.Abort)
			out.err = err
			return out
		}
		out.found = true
		out.resumed = res.Search.Resumed
		if res.Search.WarmStarted && warmFrom != "" {
			out.warmFrom = warmFrom
			s.warmHits.Add(1)
		}
		out.schedule = scheduleJSON(res.Schedule)
		out.program = programJSON(res.Program, res.Codec)
		recordWarm()
		return out
	}

	res, err := mc.ExploreContext(ex.ctx, ex.sys, ex.goal, opts)
	if err != nil && retryFresh(err) {
		res, err = mc.ExploreContext(ex.ctx, ex.sys, ex.goal, opts)
	}
	if retryCold(err, res) {
		goCold()
		res, err = mc.ExploreContext(ex.ctx, ex.sys, ex.goal, opts)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.found = res.Found
	out.abort = res.Abort
	out.resumed = res.Resumed
	if res.WarmStarted && warmFrom != "" {
		out.warmFrom = warmFrom
		s.warmHits.Add(1)
	}
	if res.Abort == mc.AbortNone {
		recordWarm()
	}
	return out
}

// executeDiscover runs the guide search for a discover job. The service
// JobTimeout caps the whole search (the per-probe options timeout, if the
// client set one, still applies inside each oracle run); cancellation and
// deadline surface as the matching abort reasons so they are service
// outcomes, not failures. Partial results (the evaluations probed before
// an abort) still reach the client.
func (s *Server) executeDiscover(ex *execution) *outcome {
	ctx := ex.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	opts := ex.opts
	res, err := guide.Search(ctx, ex.plantCfg, guide.Options{
		Budget:   ex.budget,
		Seed:     ex.seed,
		Oracle:   &opts,
		Observer: &mc.FuncObserver{OnSnapshot: ex.publish},
		Progress: ex.publishProbe,
	})
	out := &outcome{}
	if res != nil {
		out.discover = discoverJSON(res)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			out.abort = mc.AbortCanceled
		case errors.Is(err, context.DeadlineExceeded):
			out.abort = mc.AbortTimeout
		}
		out.err = err
		return out
	}
	out.found = res.Best.Found
	return out
}

// Drain gracefully shuts the service down: admission stops (new POSTs get
// 503), queued and running jobs are given until ctx expires to finish,
// then every remaining execution is canceled and awaited — cancellation is
// prompt, and each canceled job still flushes a final report with abort
// "canceled". Drain returns once every execution has settled and the
// worker pool has stopped; it is idempotent.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	s.drainOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
		}
		s.logf("drain: admission closed, %d execution(s) in flight", s.cache.inflightCount())
		settled := make(chan struct{})
		go func() {
			s.queue.wg.Wait()
			close(settled)
		}()
		select {
		case <-settled:
		case <-ctx.Done():
			canceled := s.cache.cancelInflight()
			s.logf("drain: deadline hit, canceled %d execution(s)", canceled)
			<-settled
		}
		s.queue.close()
		if s.cfg.CheckpointDir != "" {
			// The world is quiet: collect checkpoints of evicted keys so a
			// long-lived deployment's disk usage stays bounded.
			s.gcCheckpoints()
		}
		s.logf("drain: complete (%d execution(s) run)", s.finished.Load())
	})
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
