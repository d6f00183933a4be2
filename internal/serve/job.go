package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/cliutil"
	"guidedta/internal/guide"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// JobState is the lifecycle of one submitted job.
type JobState string

// Job lifecycle states. A canceled job keeps JobCanceled even after its
// (shared) execution settles; its report then records how the execution
// actually ended — AbortCanceled when the cancellation stopped the search,
// or a complete result when other coalesced jobs kept it running.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// CacheState says how admission resolved a job against the result cache.
type CacheState string

// Admission outcomes: a fresh execution, a replayed cached report, or a
// coalesced ride on an identical in-flight execution.
const (
	CacheMiss      CacheState = "miss"
	CacheHit       CacheState = "hit"
	CacheCoalesced CacheState = "coalesced"
)

// Job is one submitted request's record: admission metadata plus, once the
// underlying execution settles, its outcome. Jobs are cheap — coalesced
// and cache-hit jobs never own an execution.
type Job struct {
	ID          string
	Created     time.Time
	Query       string
	ModelSHA256 string
	Key         string
	CacheState  CacheState

	exec *execution // nil for cache hits

	mu       sync.Mutex
	state    JobState
	out      *outcome
	canceled bool
}

func (j *Job) setState(st JobState) {
	j.mu.Lock()
	if !j.canceled {
		j.state = st
	}
	j.mu.Unlock()
}

// complete records the settled outcome. A canceled job keeps its canceled
// state but still receives the final report ("flush final reports").
func (j *Job) complete(out *outcome) {
	j.mu.Lock()
	j.out = out
	if !j.canceled {
		switch {
		case out.err != nil && out.abort == mc.AbortNone:
			j.state = JobFailed
		default:
			j.state = JobDone
		}
	}
	j.mu.Unlock()
}

// cancel withdraws this job's interest in its execution. The execution is
// only canceled when no other (coalesced) job still wants its answer.
func (j *Job) cancel() {
	j.mu.Lock()
	already := j.canceled || j.state == JobDone || j.state == JobFailed
	if !already {
		j.canceled = true
		j.state = JobCanceled
	}
	j.mu.Unlock()
	if already || j.exec == nil {
		return
	}
	j.exec.release()
}

// snapshot returns the state and outcome under the job's lock.
func (j *Job) snapshot() (JobState, *outcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.out
}

// wait blocks until the job's execution settles or ctx is done. Jobs
// without an execution (cache hits) are already settled.
func (j *Job) wait(ctx context.Context) {
	if j.exec == nil {
		return
	}
	select {
	case <-j.exec.done:
	case <-ctx.Done():
	}
}

// execution is one underlying model-checking run, shared by every job that
// coalesced onto its cache key. It owns the model, the resolved options, a
// cancellation context refcounted by job interest, and the live snapshot
// fan-out for event streams.
type execution struct {
	key      string
	modelSHA string
	query    string

	// src (tadsl text) or plantCfg describes the model; plant, sys and goal
	// are its built form. Admission fills them when it had to resolve the
	// model to learn its identity; when the identity came from the
	// resolution memo, resolve fills them at dispatch instead.
	src   string
	plant *plant.Plant // nil for tadsl models
	sys   *ta.System
	goal  mc.Goal
	opts  mc.Options

	isPlant  bool
	plantCfg plant.Config

	// tenant is the admission tenant (fair-queue scheduling and quota
	// accounting); resynth marks a re-synthesis of an already-deployed
	// schedule, which the fair queue serves ahead of that tenant's normal
	// work. Neither is part of the cache key: the answer is a property of
	// the model and options, not of who asked.
	tenant  string
	resynth bool

	// isDiscover marks a guide-search job; budget and seed parameterize
	// the search (cfg comes from plantCfg).
	isDiscover bool
	budget     guide.Budget
	seed       int64

	ctx    context.Context
	cancel context.CancelFunc

	// running flips when a worker picks the execution up, so jobs
	// coalescing onto it report "running" rather than "queued".
	running atomic.Bool

	done chan struct{} // closed when the outcome has been published

	mu sync.Mutex
	// Interest accounting: attached counts successful attach calls, released
	// counts withdrawals. They are tracked as a pair — not derived from
	// len(jobs) — so a cancel can never race an in-progress coalesce into
	// cancelling the shared search out from under a later rider (see
	// release).
	jobs     []*Job
	attached int
	released int
	last     *streamEvent
	subs     map[chan streamEvent]struct{}
	settled  bool
}

// resolve builds the execution's plant, or parses its tadsl source,
// unless that already happened. Its errors are admission errors: only
// models that resolved cleanly enter the memo, so at dispatch it succeeds.
func (ex *execution) resolve() error {
	if ex.sys != nil {
		return nil
	}
	if ex.src != "" {
		model, err := tadsl.Parse(ex.src)
		if err != nil {
			return badRequestf("bad model: %v", err)
		}
		if !model.HasQuery {
			return badRequestf("model has no `query exists ...` line")
		}
		ex.sys, ex.goal = model.Sys, model.Query
		return nil
	}
	p, err := plant.Build(ex.plantCfg)
	if err != nil {
		return badRequestf("bad plant configuration: %v", err)
	}
	ex.plant, ex.sys, ex.goal = p, p.Sys, p.Goal
	return nil
}

// streamEvent is one tagged SSE frame of an execution's event stream:
// engine `snapshot` samples and guide-search `probe`/`replay` events ride
// the same fan-out.
type streamEvent struct {
	name string
	data any
}

// attach registers a job's interest; it fails once the execution has
// settled (the caller then replays the cached outcome instead) or been
// canceled (the caller then replaces it with a fresh execution rather
// than inheriting a cancellation it did not request).
func (ex *execution) attach(j *Job) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.settled || ex.ctx.Err() != nil {
		return false
	}
	ex.jobs = append(ex.jobs, j)
	ex.attached++
	return true
}

// release drops one job's interest; the execution is canceled only when
// interest truly drops to zero after at least one attach. Both the
// decision and the cancel happen under ex.mu, and attach re-checks
// ctx.Err() under the same lock, so the historical race — a cancel
// observing `released >= len(ex.jobs)` while a coalescing attach was
// between admission and append (or before any job attached at all) and
// killing the shared search under its future riders — cannot recur:
// either the attach lands first (interest > 0, no cancel) or the cancel
// lands first (the attach fails and admission builds a fresh execution).
func (ex *execution) release() {
	ex.mu.Lock()
	ex.released++
	if !ex.settled && ex.attached > 0 && ex.released >= ex.attached {
		ex.cancel()
	}
	ex.mu.Unlock()
}

// publish fans an engine progress snapshot out to every subscribed event
// stream; slow subscribers drop samples rather than stall the sampler.
func (ex *execution) publish(s mc.Snapshot) {
	ex.fanout(streamEvent{name: "snapshot", data: snapshotJSON(s)})
}

// publishProbe fans a guide-search progress event out (discover jobs).
func (ex *execution) publishProbe(p guide.Progress) {
	ex.fanout(streamEvent{name: p.Phase, data: probeJSON(p)})
}

func (ex *execution) fanout(ev streamEvent) {
	ex.mu.Lock()
	ex.last = &ev
	for ch := range ex.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	ex.mu.Unlock()
}

// subscribe opens an event channel for an SSE stream, replaying the
// latest event so a late subscriber sees progress immediately.
func (ex *execution) subscribe() chan streamEvent {
	ch := make(chan streamEvent, 8)
	ex.mu.Lock()
	if ex.subs == nil {
		ex.subs = make(map[chan streamEvent]struct{})
	}
	ex.subs[ch] = struct{}{}
	if ex.last != nil {
		ch <- *ex.last
	}
	ex.mu.Unlock()
	return ch
}

func (ex *execution) unsubscribe(ch chan streamEvent) {
	ex.mu.Lock()
	delete(ex.subs, ch)
	ex.mu.Unlock()
}

// jobsNow copies the currently attached jobs.
func (ex *execution) jobsNow() []*Job {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return append([]*Job(nil), ex.jobs...)
}

// outcome is the settled result of one execution, shared verbatim between
// the cache and every attached job.
type outcome struct {
	report   *cliutil.RunReport
	found    bool
	abort    mc.AbortReason
	schedule *ScheduleJSON
	program  *ProgramJSON
	discover *DiscoverJSON
	// resumed marks an execution that was seeded from a durable checkpoint
	// left by an earlier aborted run of the same cache key.
	resumed bool
	// warmFrom names the checkpoint key whose final snapshot answered the
	// search ("" for cold runs); set only when the seed's witness replayed
	// on this model (mc.Result.WarmStarted).
	warmFrom string
	err      error
}

func (o *outcome) describe() string {
	switch {
	case o.err != nil && o.abort == mc.AbortNone:
		return fmt.Sprintf("failed: %v", o.err)
	case o.abort != mc.AbortNone:
		return fmt.Sprintf("aborted: %s", o.abort)
	case o.found:
		return "satisfied"
	default:
		return "not satisfied"
	}
}

// cacheable says whether the outcome may be replayed for future identical
// queries. Canceled runs are a property of the client, not the query, and
// engine errors should not be pinned; everything else — verdicts, timeouts
// and limit aborts under the very options that imposed them — is content.
func (o *outcome) cacheable() bool {
	return o.abort != mc.AbortCanceled && (o.err == nil || o.abort != mc.AbortNone)
}

// registry holds job records by id with bounded retention.
type registry struct {
	mu     sync.Mutex
	nextID int64
	jobs   map[string]*Job
	order  []string
	max    int
}

func newRegistry(max int) *registry {
	return &registry{jobs: make(map[string]*Job), max: max}
}

func (r *registry) create() *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", r.nextID),
		Created: time.Now().UTC(),
		state:   JobQueued,
	}
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	return j
}

// evictLocked drops the oldest settled jobs beyond the retention bound;
// queued/running jobs are never evicted.
func (r *registry) evictLocked() {
	for i := 0; len(r.jobs) > r.max && i < len(r.order); {
		id := r.order[i]
		j, ok := r.jobs[id]
		if !ok {
			r.order = append(r.order[:i], r.order[i+1:]...)
			continue
		}
		st, _ := j.snapshot()
		if st == JobQueued || st == JobRunning {
			i++
			continue
		}
		delete(r.jobs, id)
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r *registry) remove(id string) {
	r.mu.Lock()
	delete(r.jobs, id)
	r.mu.Unlock()
}

// counts tallies jobs by state for /status.
func (r *registry) counts() map[JobState]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[JobState]int, 5)
	for _, j := range r.jobs {
		st, _ := j.snapshot()
		out[st]++
	}
	return out
}
