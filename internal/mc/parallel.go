package mc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// parSearch is the work-stealing parallel loop for the BFS and DFS
// orders: Options.Workers workers each own a deque of waiting nodes and a
// worker (engineCtx and counters, so successor computation never shares
// mutable scratch), run the shared expansion kernel, deduplicate through
// the lock-striped sharded store, and stop on the first goal hit.
// Found/Abort semantics are identical to the sequential search —
// reachability answers cannot depend on exploration order, and any
// reported trace replays and concretizes the same way — though which
// witness trace is found may differ, as may effort statistics.
type parSearch struct {
	search
	sharded *shardedStore
	deques  []deque
	workers []*worker
	// base holds a resumed checkpoint's cumulative counters; the workers
	// count only this run's share.
	base counters

	// pending counts nodes that are queued or being expanded; the search
	// is exhausted when it reaches zero.
	pending  atomic.Int64
	explored atomic.Int64
	// waiting is the global frontier length across all deques; peakWaiting
	// is its high-watermark — the true global peak, not a per-worker sum.
	waiting     atomic.Int64
	peakWaiting atomic.Int64
	stop        atomic.Bool

	// pck is the quiesce barrier for periodic checkpoints (nil unless
	// Options.Checkpoint is enabled).
	pck *parCheckpointer

	// ins is the snapshot instrumentation block (nil unless the observer
	// asked for snapshots).
	ins *instr

	// The terminal outcome, guarded by search.mu.
	goalNode    *node
	abortReason AbortReason
	evalErr     error
}

// newParSearch sets up the loop; the prologue's worker is worker 0.
func newParSearch(en *engine, goal Goal) *parSearch {
	nw := en.opts.Workers
	ps := &parSearch{deques: make([]deque, nw)}
	ps.init(en, goal)
	ps.sharded = ps.store.(*shardedStore)
	ps.workers = []*worker{&ps.w0}
	for i := 1; i < nw; i++ {
		w := ps.newWorker(i)
		ps.workers = append(ps.workers, &w)
	}
	if en.sampling() {
		ps.ins = newInstr(nw)
	}
	return ps
}

// queue scatters nodes round-robin across the worker deques, preserving
// their relative order within each deque. A compact-stored node is
// released strictly before its deque publication: once pushed, any worker
// may pop it and rebuild its zone.
func (ps *parSearch) queue(ns []*node) {
	c := ps.workers[0].c
	per := make([][]*node, len(ps.deques))
	for i, n := range ns {
		if n.czone != nil {
			c.releaseNode(n)
		}
		per[i%len(per)] = append(per[i%len(per)], n)
	}
	for i, batch := range per {
		if len(batch) > 0 {
			ps.deques[i].pushBatch(batch)
		}
	}
	total := int64(len(ns))
	ps.pending.Add(total)
	updateMax(&ps.peakWaiting, ps.waiting.Add(total))
}

// restore scatters a resumed frontier like queue. Parallel resume
// preserves the verdict and abort semantics rather than a specific
// traversal order — which parallel runs never had.
func (ps *parSearch) restore(rs *resumedState) {
	ps.base = countersOf(rs.stats, len(ps.en.sys.Automata))
	ps.explored.Store(int64(ps.base.explored))
	ps.peakWaiting.Store(int64(ps.base.peakWaiting))
	ps.queue(rs.frontier)
}

func (ps *parSearch) run() (*node, AbortReason, error) {
	if ps.ck != nil {
		ps.pck = &parCheckpointer{ck: ps.ck, ps: ps, active: len(ps.workers)}
		ps.pck.cond = sync.NewCond(&ps.pck.mu)
	}
	var wg sync.WaitGroup
	for _, w := range ps.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if ps.pck != nil {
				// Leave the quiesce barrier's population on any exit so a
				// checkpoint round never waits for a worker that is gone.
				defer ps.pck.workerExit()
			}
			// A goroutine panic cannot be recovered by the caller, so
			// each worker converts model-level *expr.RuntimeError panics
			// itself (mirroring ExploreContext's deferred recover for the
			// sequential path) and stops the search; the error surfaces
			// after the join below. Engine bugs still crash.
			defer func() {
				if r := recover(); r != nil {
					err := evalError(r)
					ps.mu.Lock()
					if ps.evalErr == nil {
						ps.evalErr = err
					}
					ps.mu.Unlock()
					ps.stop.Store(true)
				}
			}()
			ps.work(w)
		}(w)
	}
	wg.Wait()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.evalErr != nil {
		return nil, AbortNone, ps.evalErr
	}
	if ps.pck != nil {
		if err := ps.pck.takeErr(); err != nil {
			return nil, AbortNone, err
		}
	}
	if ps.goalNode != nil {
		return ps.goalNode, AbortNone, nil
	}
	return nil, ps.abortReason, nil
}

// finish records the first goal hit (then halts every kernel) or the
// first limit violation, and stops all workers. A goal found concurrently
// with an abort wins (matching the sequential search, which checks limits
// only between expansions). After an abort, expansions in flight still
// store and queue their successors, so the abort-time checkpoint holds
// every stored node either expanded or waiting.
func (ps *parSearch) finish(goal *node, reason AbortReason) {
	ps.mu.Lock()
	if goal != nil && ps.goalNode == nil {
		ps.goalNode = goal
		ps.halt.Store(true)
	}
	if ps.abortReason == AbortNone {
		ps.abortReason = reason
	}
	ps.mu.Unlock()
	ps.stop.Store(true)
}

// work is one worker's loop: the limit check, then pop from the own
// deque, steal when empty, quit when the search is stopped or globally
// exhausted.
func (ps *parSearch) work(w *worker) {
	my := &ps.deques[w.id]
	bfs := ps.en.opts.Search == BFS
	idle := 0
	for !ps.stop.Load() {
		if ps.pck != nil && ps.pck.pending() {
			// A checkpoint round is open: park at the barrier (the loop top
			// is the quiesce point — no node is mid-expansion here), then
			// re-check stop before popping more work.
			ps.pck.park()
			continue
		}
		if ps.pending.Load() == 0 {
			return
		}
		mem := ps.sharded.byteCount()
		w.peakMem = max(w.peakMem, mem)
		if reason := ps.en.limit(int(ps.explored.Load()), mem); reason != AbortNone {
			ps.finish(nil, reason)
			return
		}
		var n *node
		if bfs {
			n = my.popHead()
		} else {
			n = my.popTail()
		}
		if n == nil {
			n = ps.trySteal(w)
		}
		if n == nil {
			// Another worker still holds work; yield, then back off.
			idle++
			if idle < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		ps.waiting.Add(-1)
		succ, hit, expanded := w.expand(n)
		if expanded {
			ps.explored.Add(1)
		}
		if len(succ) > 0 {
			for _, x := range succ {
				if x.czone != nil {
					// Release strictly before the deque publication below:
					// once pushed, a stealing worker may pop x and rebuild
					// its zone.
					w.c.releaseNode(x)
				}
			}
			ps.pending.Add(int64(len(succ)))
			my.pushBatch(succ)
			updateMax(&ps.peakWaiting, ps.waiting.Add(int64(len(succ))))
		}
		if hit != nil {
			ps.finish(hit, AbortNone)
		}
		if ps.ins != nil && expanded {
			ps.ins.publish(w.id, &w.counters)
		}
		ps.pending.Add(-1)
	}
}

// trySteal takes a batch of nodes from another worker's deque, keeps the
// first, and queues the rest locally. Stolen nodes merely change deques,
// so the global waiting count is untouched.
func (ps *parSearch) trySteal(w *worker) *node {
	nw := len(ps.deques)
	for off := 1; off < nw; off++ {
		victim := &ps.deques[(w.id+off)%nw]
		batch := victim.stealHalf()
		if len(batch) == 0 {
			continue
		}
		w.steals++
		if ps.ins != nil {
			ps.ins.steals.Add(1)
		}
		if len(batch) > 1 {
			ps.deques[w.id].pushBatch(batch[1:])
		}
		return batch[0]
	}
	return nil
}

// fold merges the resumed base and every worker's counters; the workers
// must be quiesced (parked at the barrier, or joined).
func (ps *parSearch) fold() counters {
	var k counters
	k.merge(&ps.base)
	for _, w := range ps.workers {
		k.merge(&w.counters)
	}
	k.peakWaiting = max(k.peakWaiting, int(ps.peakWaiting.Load()))
	k.peakMem = max(k.peakMem, ps.sharded.byteCount())
	return k
}

// save writes a checkpoint of the quiesced search. Frontier nodes are
// gathered deque by deque, head to tail; resuming scatters them
// round-robin (see restore).
func (ps *parSearch) save() error {
	var front []*node
	for i := range ps.deques {
		d := &ps.deques[i]
		d.mu.Lock()
		front = append(front, d.q[d.head:]...)
		d.mu.Unlock()
	}
	k := ps.fold()
	return ps.checkpoint(front, nil, &k)
}

// report charges the frontier at the global peak waiting length on top of
// the peak store bytes.
func (ps *parSearch) report(ss storeStats) (st Stats) {
	k := ps.fold()
	k.report(&st)
	st.MemBytes = k.peakMem + int64(st.PeakWaiting)*waitingSlot
	if ps.en.opts.Profile {
		st.ShardOccupancy = ps.sharded.occupancy()
		st.WorkerExplored = make([]int, len(ps.workers))
		for i, w := range ps.workers {
			st.WorkerExplored[i] = w.explored
		}
	}
	return st
}

// snapshot assembles a progress Snapshot for the sampler: cheap atomic
// counters plus one locked pass over the store shards (once per sampling
// interval, not per state).
func (ps *parSearch) snapshot() Snapshot {
	snap := ps.ins.snapshot()
	snap.StatesExplored = int(ps.explored.Load())
	snap.Waiting = int(ps.waiting.Load())
	snap.PeakWaiting = int(ps.peakWaiting.Load())
	ss := ps.store.stats()
	snap.StatesStored = ss.count
	snap.StoreBytes = ss.bytes
	snap.MemBytes = ss.bytes + int64(snap.PeakWaiting)*waitingSlot
	return snap
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

// compact drops the popped prefix once it dominates the backing array.
// Callers must hold d.mu.
func (d *deque) compact() {
	if d.head > 4096 && d.head*2 > len(d.q) {
		d.q = append(d.q[:0], d.q[d.head:]...)
		d.head = 0
	}
}
