package mc

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/expr"
)

// exploreParallel is the work-stealing parallel variant of exploreSeq for
// the BFS and DFS orders: Options.Workers workers each own a deque of
// waiting nodes and an engineCtx (so successor computation never shares
// mutable scratch), deduplicate through the lock-striped sharded store,
// and stop on the first goal hit. Found/Abort semantics are identical to
// the sequential search — reachability answers cannot depend on
// exploration order, and any reported trace replays and concretizes the
// same way — though which witness trace is found may differ, as may effort
// statistics.
func exploreParallel(en *engine, goal Goal) (Result, error) {
	start := time.Now()
	res := Result{}

	initCtx := en.newCtx()
	init, err := initCtx.initial()
	if err != nil {
		return res, err
	}
	if !goal.Deadlock && goal.Satisfied(init.locs, init.env) {
		res.Found = true
		res.Stats.Duration = time.Since(start)
		return res, nil
	}

	nw := en.opts.Workers
	newShard := func() localStore { return newMapStore(en.opts.Inclusion) }
	if en.opts.Compact {
		newShard = func() localStore { return newCompactStore(en.opts.Inclusion) }
	}
	ps := &parSearch{
		en:      en,
		goal:    goal,
		store:   newShardedStore(newShard),
		start:   start,
		deques:  make([]deque, nw),
		workers: make([]parWorker, nw),
	}
	if en.wantSnapshot && en.opts.SnapshotEvery > 0 {
		ps.ins = newInstr(nw)
		smp := startSampler(en.obs, en.opts.SnapshotEvery, start, ps.readSnapshot)
		defer smp.stop()
	}
	ck, err := newCheckpointer(&en.opts)
	if err != nil {
		return res, err
	}
	resumed := false
	if ck != nil {
		rs, err := ck.resume(ps.store)
		if err != nil {
			return res, err
		}
		if rs != nil {
			res.Resumed = true
			resumed = true
			ps.seedResumed(rs)
		}
		ps.ck = &parCheckpointer{ck: ck, ps: ps, active: nw}
		ps.ck.cond = sync.NewCond(&ps.ck.mu)
		ck.startTicker()
		defer ck.stopTicker()
	}
	if !resumed {
		ps.store.add(discreteKey(nil, init.locs, init.env), init)
		if init.czone != nil {
			// Compact store: ship the node without its matrix. Release strictly
			// before the deque push — once published, any worker may pop the
			// node and rebuild its zone.
			initCtx.releaseNode(init)
		}
		ps.pending.Store(1)
		ps.waiting.Store(1)
		ps.peakWaiting.Store(1)
		ps.deques[0].pushBatch([]*node{init})
	}

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if ps.ck != nil {
				// Leave the quiesce barrier's population on any exit so a
				// checkpoint round never waits for a worker that is gone.
				defer ps.ck.workerExit()
			}
			// A goroutine panic cannot be recovered by the caller, so
			// each worker converts model-level *expr.RuntimeError panics
			// itself (mirroring ExploreContext's deferred recover for the
			// sequential path) and stops the search; the error surfaces
			// after the join below. Engine bugs still crash.
			defer func() {
				if r := recover(); r != nil {
					re, ok := r.(*expr.RuntimeError)
					if !ok {
						panic(r)
					}
					ps.mu.Lock()
					if ps.evalErr == nil {
						ps.evalErr = re
					}
					ps.mu.Unlock()
					ps.stop.Store(true)
				}
			}()
			ps.run(id)
		}(i)
	}
	wg.Wait()
	ps.mu.Lock()
	evalErr := ps.evalErr
	ps.mu.Unlock()
	if evalErr != nil {
		return res, fmt.Errorf("mc: evaluating model expression: %w", evalErr)
	}

	st := &res.Stats
	st.StatesExplored = int(ps.explored.Load())
	st.PeakWaiting = int(ps.peakWaiting.Load())
	st.Steals = ps.steals.Load()
	for i := range ps.workers {
		w := &ps.workers[i]
		st.Transitions += w.transitions
		st.Deadends += w.deadends
		if w.maxDepth > st.MaxDepth {
			st.MaxDepth = w.maxDepth
		}
		if w.byAutomaton != nil {
			if st.ByAutomaton == nil {
				st.ByAutomaton = make([]int, len(en.sys.Automata))
			}
			for ai, c := range w.byAutomaton {
				st.ByAutomaton[ai] += c
			}
		}
	}
	ss := ps.store.stats()
	st.StatesStored = ss.count
	st.DiscreteStates = ss.discrete
	st.Evictions = ss.evictions
	st.StoreBytes = ss.bytes
	if ss.constraints > 0 && ss.count > 0 {
		st.AvgZoneConstraints = float64(ss.constraints) / float64(ss.count)
	}
	peakStore := ss.bytes
	for i := range ps.workers {
		if p := ps.workers[i].peakStoreBytes; p > peakStore {
			peakStore = p
		}
	}
	st.MemBytes = peakStore + int64(st.PeakWaiting)*waitingSlot
	if en.opts.Profile {
		st.ShardOccupancy = ps.store.occupancy()
		st.WorkerExplored = make([]int, nw)
		for i := range ps.workers {
			st.WorkerExplored[i] = ps.workers[i].explored
		}
	}
	st.Duration = time.Since(start)

	ps.mu.Lock()
	goalNode, abort := ps.goalNode, ps.abortReason
	ps.mu.Unlock()
	if goalNode != nil {
		res.Found = true
		res.Trace = traceOf(goalNode)
	} else {
		res.Abort = abort
	}
	if ck != nil {
		if err := ps.ck.takeErr(); err != nil {
			return res, err
		}
		if res.Abort != AbortNone {
			// Abort-time durability: the workers have joined, so the
			// coordinator snapshots the final frontier for a later resume.
			if err := ps.saveParallel(ck); err != nil {
				return res, err
			}
		} else if en.opts.Checkpoint.KeepFinal {
			// Completed search: persist a Final-stamped snapshot as a
			// warm-start seed for nearby models (load refuses it for resume).
			ck.final = true
			if err := ps.saveParallel(ck); err != nil {
				return res, err
			}
		}
		ck.stamp(st)
		if res.Abort == AbortNone && !en.opts.Checkpoint.KeepFinal {
			ck.finish()
		}
	}
	return res, nil
}

// parSearch is the shared state of one parallel exploration.
type parSearch struct {
	en    *engine
	goal  Goal
	store *shardedStore
	start time.Time

	deques  []deque
	workers []parWorker

	// pending counts nodes that are queued or being expanded; the search
	// is exhausted when it reaches zero.
	pending  atomic.Int64
	explored atomic.Int64
	// waiting is the global frontier length across all deques; peakWaiting
	// is its high-watermark — the true global peak, not a per-worker sum.
	waiting     atomic.Int64
	peakWaiting atomic.Int64
	steals      atomic.Int64
	stop        atomic.Bool

	// ck is the quiesce barrier for periodic checkpoints (nil unless
	// Options.Checkpoint is enabled).
	ck *parCheckpointer

	// ins is the snapshot instrumentation block (nil unless the observer
	// asked for snapshots).
	ins *instr

	// mu guards the terminal outcome and serializes the observer's
	// per-state events (which are specified as serialized).
	mu          sync.Mutex
	goalNode    *node
	abortReason AbortReason
	evalErr     error
}

// parWorker is the per-worker statistics block, written only by its owner
// until the workers have joined.
type parWorker struct {
	explored       int
	transitions    int
	deadends       int
	maxDepth       int
	peakStoreBytes int64
	byAutomaton    []int
}

// readSnapshot assembles a progress Snapshot for the sampler: cheap atomic
// counters plus one locked pass over the store shards (once per sampling
// interval, not per state).
func (ps *parSearch) readSnapshot() Snapshot {
	snap := ps.ins.snapshot()
	snap.StatesExplored = int(ps.explored.Load())
	snap.Waiting = int(ps.waiting.Load())
	snap.PeakWaiting = int(ps.peakWaiting.Load())
	snap.Steals = ps.steals.Load()
	ss := ps.store.stats()
	snap.StatesStored = ss.count
	snap.StoreBytes = ss.bytes
	snap.MemBytes = ss.bytes + int64(snap.PeakWaiting)*waitingSlot
	return snap
}

// found records the first goal hit and stops all workers.
func (ps *parSearch) found(n *node) {
	ps.mu.Lock()
	if ps.goalNode == nil {
		ps.goalNode = n
	}
	ps.mu.Unlock()
	ps.stop.Store(true)
}

// abort records the first limit violation and stops all workers. A goal
// found concurrently wins (matching the sequential search, which checks
// limits only between expansions).
func (ps *parSearch) abort(reason AbortReason) {
	ps.mu.Lock()
	if ps.abortReason == AbortNone {
		ps.abortReason = reason
	}
	ps.mu.Unlock()
	ps.stop.Store(true)
}

// checkLimits is the parallel analogue of engine.checkLimits, driven by
// the shared atomic counters; it is also the idle workers' cancellation
// check.
func (ps *parSearch) checkLimits() {
	select {
	case <-ps.en.done:
		ps.abort(ctxAbort(ps.en.ctx))
		return
	default:
	}
	opts := &ps.en.opts
	if opts.MaxStates > 0 && int(ps.explored.Load()) >= opts.MaxStates {
		ps.abort(AbortStates)
		return
	}
	if opts.MaxMemory > 0 && ps.store.memBytes() > opts.MaxMemory {
		ps.abort(AbortMemory)
	}
}

// run is one worker's loop: pop from the own deque, steal when empty, quit
// when the search is stopped or globally exhausted.
func (ps *parSearch) run(id int) {
	ctx := ps.en.newCtx()
	w := &ps.workers[id]
	my := &ps.deques[id]
	bfs := ps.en.opts.Search == BFS
	var succBuf []*node
	idle := 0
	for {
		if ps.stop.Load() {
			return
		}
		if ps.ck != nil && ps.ck.pending() {
			// A checkpoint round is open: park at the barrier (the loop top
			// is the quiesce point — no node is mid-expansion here), then
			// re-check stop before popping more work.
			ps.ck.park()
			continue
		}
		var n *node
		if bfs {
			n = my.popHead()
		} else {
			n = my.popTail()
		}
		if n == nil {
			n = ps.trySteal(id)
		}
		if n == nil {
			if ps.pending.Load() == 0 {
				return
			}
			// Another worker still holds work; yield, then back off, and
			// keep cancellation and the limits observable while idle.
			idle++
			if idle%64 == 0 {
				ps.checkLimits()
			}
			if idle < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		ps.waiting.Add(-1)
		succBuf = ps.expand(ctx, id, w, my, n, succBuf)
	}
}

// trySteal takes a batch of nodes from another worker's deque, keeps the
// first, and queues the rest locally. Stolen nodes merely change deques,
// so the global waiting count is untouched.
func (ps *parSearch) trySteal(id int) *node {
	nw := len(ps.deques)
	for off := 1; off < nw; off++ {
		victim := &ps.deques[(id+off)%nw]
		batch := victim.stealHalf()
		if len(batch) == 0 {
			continue
		}
		ps.steals.Add(1)
		if len(batch) > 1 {
			ps.deques[id].pushBatch(batch[1:])
		}
		return batch[0]
	}
	return nil
}

// expand generates and enqueues the successors of n. It returns the reused
// successor buffer.
func (ps *parSearch) expand(ctx *engineCtx, id int, w *parWorker, my *deque, n *node, succBuf []*node) []*node {
	if n.subsumed.Load() {
		// The store already evicted this node and it was never expanded:
		// zone and struct both recycle locally (the store's last touch of
		// the node happens-before the subsumed flag it just loaded).
		ctx.recycleNode(n)
		ps.pending.Add(-1)
		return succBuf
	}
	en := ps.en
	// Limit checks mirror the sequential loop: cancellation, states, and
	// memory before every expansion.
	select {
	case <-en.done:
		ps.abort(ctxAbort(en.ctx))
		ps.pending.Add(-1)
		return succBuf
	default:
	}
	opts := &en.opts
	if opts.MaxStates > 0 && int(ps.explored.Load()) >= opts.MaxStates {
		ps.abort(AbortStates)
		ps.pending.Add(-1)
		return succBuf
	}
	if mem := ps.store.memBytes(); mem > 0 {
		if mem > w.peakStoreBytes {
			w.peakStoreBytes = mem
		}
		if opts.MaxMemory > 0 && mem > opts.MaxMemory {
			ps.abort(AbortMemory)
			ps.pending.Add(-1)
			return succBuf
		}
	}
	ps.explored.Add(1)
	w.explored++
	if n.depth > w.maxDepth {
		w.maxDepth = n.depth
	}
	if en.wantVisit {
		ps.mu.Lock()
		en.obs.StateVisited(StateVisit{Locs: n.locs, Env: n.env, Depth: n.depth, Worker: id})
		ps.mu.Unlock()
	}
	if n.zone == nil && n.czone != nil {
		// Compact store: the matrix was released before n was enqueued;
		// rebuild it (exactly) on this worker's free-list for expansion.
		n.zone = ctx.inflateZone(n.czone)
	}
	ins := ps.ins
	hadSucc := false
	succBuf = succBuf[:0]
	ctx.successors(n, func(s *node) {
		hadSucc = true
		w.transitions++
		if ins != nil {
			ins.transitions.Add(1)
		}
		if en.opts.Profile {
			if w.byAutomaton == nil {
				w.byAutomaton = make([]int, len(en.sys.Automata))
			}
			w.byAutomaton[s.via.A1]++
		}
		if ps.stop.Load() {
			ctx.recycleNode(s)
			return
		}
		ctx.keyBuf = discreteKey(ctx.keyBuf[:0], s.locs, s.env)
		if !ctx.offer(ps.store, ctx.keyBuf, s) {
			ctx.recycleNode(s)
			return
		}
		if !ps.goal.Deadlock && ps.goal.Satisfied(s.locs, s.env) {
			ps.found(s)
			return
		}
		if s.czone != nil {
			// Release strictly before the deque publication below: once
			// pushed, a stealing worker may pop s and rebuild its zone.
			ctx.releaseNode(s)
		}
		succBuf = append(succBuf, s)
	})
	if en.prio != nil && len(succBuf) > 1 {
		prio := en.prio
		if en.opts.Search == DFS {
			slices.SortStableFunc(succBuf, func(a, b *node) int {
				return cmp.Compare(prio(a.via), prio(b.via))
			})
		} else {
			slices.SortStableFunc(succBuf, func(a, b *node) int {
				return cmp.Compare(prio(b.via), prio(a.via))
			})
		}
	}
	if len(succBuf) > 0 {
		ps.pending.Add(int64(len(succBuf)))
		my.pushBatch(succBuf)
		updateMax(&ps.peakWaiting, ps.waiting.Add(int64(len(succBuf))))
	}
	if !hadSucc {
		w.deadends++
		if ins != nil {
			ins.deadends.Add(1)
		}
		if en.wantDeadend {
			ps.mu.Lock()
			en.obs.Deadend(StateVisit{Locs: n.locs, Env: n.env, Depth: n.depth, Worker: id})
			ps.mu.Unlock()
		}
		if ps.goal.Deadlock && ps.goal.Satisfied(n.locs, n.env) {
			ps.found(n)
		}
	}
	if ins != nil {
		updateMax(&ins.maxDepth, int64(n.depth))
		ins.workers[id].Add(1)
	}
	// n has been expanded: under the compact store its matrix is
	// reconstructible from n.czone, so recycle it on this worker's free-list.
	if n.czone != nil {
		ctx.releaseNode(n)
	}
	ps.pending.Add(-1)
	return succBuf
}

// deque is a mutex-guarded work deque. The owner pushes at the tail and
// pops at the tail (DFS) or head (BFS); thieves always take a batch from
// the head, which holds the oldest nodes — the roots of the largest
// unexplored subtrees under DFS, and the lowest depths under BFS.
type deque struct {
	mu   sync.Mutex
	q    []*node
	head int
}

func (d *deque) pushBatch(ns []*node) {
	d.mu.Lock()
	d.q = append(d.q, ns...)
	d.mu.Unlock()
}

func (d *deque) popTail() *node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.q) {
		return nil
	}
	n := d.q[len(d.q)-1]
	d.q[len(d.q)-1] = nil
	d.q = d.q[:len(d.q)-1]
	return n
}

func (d *deque) popHead() *node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.q) {
		return nil
	}
	n := d.q[d.head]
	d.q[d.head] = nil
	d.head++
	d.compact()
	return n
}

// stealHalf removes up to half of the deque (at least one node, at most
// 64) from the head and returns it as a fresh slice.
func (d *deque) stealHalf() []*node {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := len(d.q) - d.head
	if avail == 0 {
		return nil
	}
	k := (avail + 1) / 2
	if k > 64 {
		k = 64
	}
	batch := make([]*node, k)
	copy(batch, d.q[d.head:d.head+k])
	for i := d.head; i < d.head+k; i++ {
		d.q[i] = nil
	}
	d.head += k
	d.compact()
	return batch
}

func (d *deque) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.q) - d.head
}

// compact drops the popped prefix once it dominates the backing array.
// Callers must hold d.mu.
func (d *deque) compact() {
	if d.head > 4096 && d.head*2 > len(d.q) {
		d.q = append(d.q[:0], d.q[d.head:]...)
		d.head = 0
	}
}
