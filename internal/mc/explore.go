package mc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/expr"
	"guidedta/internal/snapshot"
	"guidedta/internal/ta"
)

// Explore runs symbolic reachability analysis of goal on sys and returns
// the result with a diagnostic trace when the goal is reachable. It is
// ExploreContext with a background context; see there for the semantics.
func Explore(sys *ta.System, goal Goal, opts Options) (Result, error) {
	return ExploreContext(context.Background(), sys, goal, opts)
}

// ExploreContext is the engine's entry point: it runs symbolic
// reachability analysis of goal on sys under ctx. The system is frozen if
// it is not already. With Options.Workers > 1 and a BFS or DFS order, the
// search runs in parallel (see parSearch); the answer and abort semantics
// are identical to the sequential search, though which witness trace is
// found may differ.
//
// Canceling ctx stops the search promptly (it is checked between state
// expansions, sequential and parallel) and returns a Result with
// AbortCanceled and statistics consistent with the work done so far.
// Options.Timeout is sugar over the context: a non-zero Timeout wraps ctx
// in context.WithTimeout and the expiry surfaces as AbortTimeout. When an
// Observer is configured it receives per-state visits, periodic Snapshots
// (Options.SnapshotEvery), and — on every non-error return — a final
// OnDone call with the Result.
func ExploreContext(ctx context.Context, sys *ta.System, goal Goal, opts Options) (res Result, err error) {
	// Expression evaluation inside the search panics with *expr.RuntimeError
	// on model-level faults (division by zero, array index out of range).
	// Those are properties of the submitted model, not of the engine: turn
	// them into an error so a hostile model cannot take down a server
	// embedding the checker. Any other panic is a genuine engine bug and
	// propagates. The parallel search does the same per worker.
	defer func() {
		if r := recover(); r != nil {
			err = evalError(r)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err = opts.normalize()
	if err != nil {
		return Result{}, err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	en, err := newEngine(ctx, sys, opts)
	if err != nil {
		return Result{}, err
	}
	if res, err = en.explore(en.newLoop(goal)); err != nil {
		return res, err
	}
	if done := en.obs.OnDone; done != nil {
		done(res)
	}
	return res, nil
}

// evalError turns a recovered *expr.RuntimeError panic into the error the
// search returns; any other panic is an engine bug and propagates.
func evalError(r any) error {
	re, ok := r.(*expr.RuntimeError)
	if !ok {
		panic(r)
	}
	return fmt.Errorf("mc: evaluating model expression: %w", re)
}

// search is the state of one exploration that both loops share: what
// the run prologue sets up (see explore) and every worker's kernel reads.
// Each loop embeds it.
type search struct {
	en    *engine
	goal  Goal
	store stateStore
	ck    *checkpointer // nil unless Options.Checkpoint
	start time.Time
	// w0 is the prologue's worker, which the loop runs as its first.
	w0 worker

	// mu serializes the observer's per-state visits, which are specified
	// as serialized, and guards the parallel search's outcome.
	mu sync.Mutex
	// halt is raised once the parallel search has found a goal: from then
	// on every kernel drops the successors it generates.
	halt atomic.Bool
}

// searchLoop is what differs between the sequential and the parallel search:
// how waiting nodes are queued and handed to the kernel, where a
// checkpoint quiesces, and how the memory peak is measured.
type searchLoop interface {
	// shared returns the loop's embedded search.
	shared() *search
	// restore queues a resumed frontier as saved and takes over the
	// checkpoint's cumulative counters.
	restore(rs *resumedState)
	// queue pushes fresh nodes, still holding their matrices: the
	// initial state.
	queue(ns []*node)
	// run searches until the frontier is exhausted, a goal is found, or a
	// limit trips.
	run() (found *node, abort AbortReason, err error)
	// save writes a checkpoint of the quiesced search.
	save() error
	// report returns the counters and the memory figures, given the
	// store's final stats.
	report(ss storeStats) Stats
	// snapshot reads a progress Snapshot for the sampler.
	snapshot() Snapshot
}

// newLoop sets up the search for goal: the sequential loop or, with
// Workers > 1 — normalize has already kept BSH and BestTime at one — the
// parallel one.
func (en *engine) newLoop(goal Goal) searchLoop {
	if en.opts.Workers > 1 {
		return newParSearch(en, goal)
	}
	return newSeqSearch(en, goal)
}

// explore runs one search with loop d: the prologue (store, checkpointer,
// resume, warm replay, initial offer) and the epilogue (store stats,
// trace, final checkpoint) are common to both orders of work.
func (en *engine) explore(d searchLoop) (res Result, err error) {
	s := d.shared()
	goal, w := s.goal, &s.w0
	// Observability: with snapshots requested, the loops publish their
	// counters into an atomic instrumentation block after every expansion
	// and a sampler goroutine turns them into Snapshots. Without (the
	// default) every publication is skipped behind one nil check.
	if en.sampling() {
		smp := startSampler(en.obs.OnSnapshot, en.opts.SnapshotEvery, s.start, d.snapshot)
		defer smp.stop()
	}

	c := w.c
	init, err := c.initial()
	if err != nil {
		return res, err
	}
	if !goal.Deadlock && goal.Satisfied(init.locs, init.env) {
		res.Found = true
		res.Stats.Duration = time.Since(s.start)
		return res, nil
	}
	if s.ck, err = newCheckpointer(&en.opts); err != nil {
		return res, err
	}
	var rs *resumedState
	if s.ck != nil {
		if rs, err = s.ck.resume(s.store); err != nil {
			return res, err
		}
		s.ck.startTicker()
		defer s.ck.stopTicker()
	}
	var found *node
	var replays int
	if rs != nil {
		// Continue where the checkpoint left off: the store is seeded in
		// its exact saved order, the frontier restored in pop order, and
		// the counters are cumulative across the interrupted runs — a
		// sequential search proceeds bit-identically to a run that was
		// never stopped.
		res.Resumed = true
		d.restore(rs)
	} else {
		if en.opts.WarmStart.enabled() && !goal.Deadlock {
			// Warm start: replay the seed's goal states on this model,
			// rooted at init. The first that replays is the answer, and
			// the run stores and queues nothing; when none does, the run
			// goes on as a cold one.
			found, replays = c.warmReplay(init, goal)
			res.WarmStarted = found != nil
		}
		if found == nil {
			// The store is empty, so it keeps init. Borrow the kernel's
			// successor buffer, which the first expansion would allocate
			// anyway: the loops copy what they queue.
			c.offer(s.store, c.stateKey(init), init)
			w.succ = append(w.succ[:0], init)
			d.queue(w.succ)
		}
	}
	if found == nil {
		if found, res.Abort, err = d.run(); err != nil {
			return res, err
		}
	}

	ss := s.store.stats()
	res.Stats = d.report(ss)
	st := &res.Stats
	st.StatesStored = ss.count
	st.DiscreteStates = ss.discrete
	st.Evictions = ss.evictions
	st.StoreBytes = ss.bytes
	if ss.constraints > 0 && ss.count > 0 {
		st.AvgZoneConstraints = float64(ss.constraints) / float64(ss.count)
	}
	st.Duration = time.Since(s.start)
	st.WarmReplays = replays
	if found != nil {
		res.Found = true
		res.Trace = traceOf(found)
	}
	if ck := s.ck; ck != nil {
		switch {
		case res.Abort != AbortNone:
			// Abort-time durability: timeouts, cancellations (a serve
			// drain), and state/memory cutoffs leave a resumable file of
			// the whole store and frontier.
			if err := d.save(); err != nil {
				return res, err
			}
		case found != nil && en.opts.Checkpoint.KeepFinal:
			// A found goal is kept as its witness path, root to goal, with
			// the goal the one stored state: all a later warm start of a
			// nearby model replays. It is stamped Final, which resume
			// refuses. A replayed goal was never offered to the store, so
			// it takes the store's zone form here: kept files are equal
			// whichever way the goal was found.
			if en.opts.Compact && found.czone == nil {
				found.czone = found.zone.Minimal()
			}
			cp, err := captureState(func(fn func(*node)) { fn(found) }, 1, nil, nil, snapshot.Stats{})
			if err != nil {
				return res, err
			}
			cp.Final = true
			if err := ck.write(cp); err != nil {
				return res, err
			}
		default:
			// The search has its answer; a stale checkpoint must not seed a
			// later run. A negative run keeps nothing: it holds no goal
			// state to replay.
			ck.finish()
		}
		ck.stamp(st)
	}
	return res, nil
}

// init starts the clock of a new loop's embedded search and sets up the
// passed store — the bit table for BSH, otherwise the antichain store in
// full or compact zone form, striped across shards for the parallel
// search — and worker 0.
func (s *search) init(en *engine, goal Goal) {
	s.en, s.goal, s.start = en, goal, time.Now()
	local := func() localStore {
		if en.opts.Compact {
			return newCompactStore(en.opts.Inclusion)
		}
		return newMapStore(en.opts.Inclusion)
	}
	switch {
	case en.opts.Search == BSH:
		s.store = &bitStore{table: newBitTable(en.opts.HashBits)}
	case en.opts.Workers > 1:
		s.store = newShardedStore(local)
	default:
		s.store = local()
	}
	s.w0 = s.newWorker(0)
}

func (s *search) shared() *search { return s }

// sampling reports whether the observer asked for periodic snapshots.
func (en *engine) sampling() bool {
	return en.obs.OnSnapshot != nil && en.opts.SnapshotEvery > 0
}

func (s *search) newWorker(id int) worker {
	return worker{c: s.en.newCtx(), s: s, id: id, retained: s.store.retainsNodes()}
}

// waitingSlot is the accounted per-entry frontier overhead for nodes whose
// bytes are already counted in the passed store (pointer plus slice
// amortization).
const waitingSlot = 16

// seqSearch is the sequential loop, common to all orders: one worker
// around a deterministic frontier (FIFO, LIFO, or the BestTime heap),
// checkpointed at the top of its loop.
type seqSearch struct {
	search
	front frontier
	// lifo is set for the DFS (and BSH) stack, whose next pop is the last
	// node pushed.
	lifo bool
	ins  *instr
	// waitingBytes is the frontier's share of the accounted memory: nodes
	// retained by the store are counted there exactly once, and waiting
	// entries add only slot overhead; with the bit table the store holds
	// no nodes, so the frontier carries the full node bytes (and gets them
	// back on pop).
	waitingBytes int64
}

func newSeqSearch(en *engine, goal Goal) *seqSearch {
	q := &seqSearch{front: newFrontier(en.opts)}
	_, q.lifo = q.front.(*lifoFrontier)
	q.init(en, goal)
	if en.sampling() {
		q.ins = newInstr(1)
	}
	return q
}

func (q *seqSearch) waitingCost(n *node) int64 {
	if q.w0.retained {
		return waitingSlot
	}
	return n.memBytes()
}

// push queues n, then parks a compact-stored node without its matrix (the
// BestTime heap takes its priority from the zone during the push) unless
// keep says it is popped next. A kept node still has its compact form, so
// a checkpoint taken before the pop writes the same bytes, and it costs
// the same slot overhead as a parked one.
func (q *seqSearch) push(n *node, keep bool) {
	q.waitingBytes += q.waitingCost(n)
	q.front.push(n)
	if n.czone != nil && !keep {
		q.w0.c.releaseNode(n)
	}
}

func (q *seqSearch) queue(ns []*node) {
	for _, n := range ns {
		q.push(n, false)
	}
}

// restore puts the frontier back in its saved pop-structure order;
// checkpointable stores all retain their nodes, so waiting entries cost
// only the slot overhead.
func (q *seqSearch) restore(rs *resumedState) {
	q.front.restore(rs.frontier, rs.prios)
	q.waitingBytes = int64(q.front.len()) * waitingSlot
	q.w0.counters = countersOf(rs.stats, len(q.en.sys.Automata))
}

func (q *seqSearch) run() (*node, AbortReason, error) {
	w, front, ck := &q.w0, q.front, q.ck
	for front.len() > 0 {
		ss := q.store.stats()
		mem := ss.bytes + q.waitingBytes
		w.peakMem = max(w.peakMem, mem)
		if ck != nil && ck.req.Load() {
			// Periodic snapshot at the loop's safe point: every frontier node
			// is store-added, compact-parked nodes carry their minimal form,
			// and ancestors need only their trace links.
			ck.req.Store(false)
			if err := q.save(); err != nil {
				return nil, AbortNone, err
			}
		}
		if reason := q.en.limit(w.explored, mem); reason != AbortNone {
			return nil, reason, nil
		}
		n := front.pop()
		q.waitingBytes -= q.waitingCost(n)
		succ, hit, _ := w.expand(n)
		for i, x := range succ {
			// The stack pops the last successor pushed first: parking
			// its matrix would only inflate it back.
			q.push(x, q.lifo && i == len(succ)-1)
		}
		w.peakWaiting = max(w.peakWaiting, front.len())
		if ins := q.ins; ins != nil {
			ins.publish(0, &w.counters)
			ins.waiting.Store(int64(front.len()))
			ins.peakWaiting.Store(int64(w.peakWaiting))
			ins.stored.Store(int64(ss.count))
			ins.storeBytes.Store(ss.bytes)
			ins.memBytes.Store(mem)
		}
		if hit != nil {
			return hit, AbortNone, nil
		}
	}
	return nil, AbortNone, nil
}

func (q *seqSearch) save() error {
	nodes, prios := q.front.state()
	return q.checkpoint(nodes, prios, &q.w0.counters)
}

func (q *seqSearch) report(ss storeStats) (st Stats) {
	q.w0.report(&st)
	st.MemBytes = max(ss.bytes+q.waitingBytes, q.w0.peakMem)
	return st
}

func (q *seqSearch) snapshot() Snapshot { return q.ins.snapshot() }

// traceOf walks parent pointers back to the initial state.
func traceOf(n *node) []Transition {
	trace := make([]Transition, n.depth)
	for cur := n; cur.parent != nil; cur = cur.parent {
		trace[cur.depth-1] = cur.via
	}
	return trace
}
