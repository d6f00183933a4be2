package mc

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"guidedta/internal/expr"
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
// search runs in parallel (see exploreParallel); the answer and abort
// semantics are identical to the sequential search, though which witness
// trace is found may differ.
//
// Canceling ctx stops the search promptly (it is checked between state
// expansions, sequential and parallel) and returns a Result with
// AbortCanceled and statistics consistent with the work done so far.
// Options.Timeout is sugar over the context: a non-zero Timeout wraps ctx
// in context.WithTimeout and the expiry surfaces as AbortTimeout. When an
// Observer is configured it receives per-state events, periodic Snapshots
// (Options.SnapshotEvery), and — on every non-error return — a final Done
// call with the Result.
func ExploreContext(ctx context.Context, sys *ta.System, goal Goal, opts Options) (res Result, err error) {
	// Expression evaluation inside the search panics with *expr.RuntimeError
	// on model-level faults (division by zero, array index out of range).
	// Those are properties of the submitted model, not of the engine: turn
	// them into an error so a hostile model cannot take down a server
	// embedding the checker. Any other panic is a genuine engine bug and
	// propagates. The parallel search does the same per worker.
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*expr.RuntimeError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("mc: evaluating model expression: %w", re)
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
	// normalize has already rejected unknown orders and a BestTime search
	// without its time clock, so only the sequential/parallel split remains.
	// Warm-started searches always run sequentially: seeding and replay
	// validation live in the sequential loop, and quietly serializing here —
	// rather than canonicalizing Workers in normalize — keeps the canonical
	// options JSON (and with it checkpoint/cache identity) independent of
	// the process-local WarmStart field.
	if opts.Workers > 1 && !opts.WarmStart.enabled() && (opts.Search == BFS || opts.Search == DFS) {
		res, err = exploreParallel(en, goal)
	} else {
		res, err = exploreSeq(en, goal)
	}
	if err != nil {
		return res, err
	}
	if en.obs != nil {
		en.obs.Done(res)
	}
	return res, nil
}

// waitingSlot is the accounted per-entry frontier overhead for nodes whose
// bytes are already counted in the passed store (pointer plus slice
// amortization).
const waitingSlot = 16

// exploreSeq is the sequential passed/waiting-list search, common to all
// orders: the store (map antichain for BFS/DFS/BestTime, bit table for
// BSH) and the frontier discipline are picked once and the loop is written
// against their interfaces.
func exploreSeq(en *engine, goal Goal) (Result, error) {
	start := time.Now()
	res := Result{}
	st := &res.Stats
	ctx := en.newCtx()

	// Observability: with snapshots requested, the loop publishes its
	// counters into the atomic instrumentation block after every expansion
	// and a sampler goroutine turns them into Snapshots. With ins == nil
	// (the default) every publication is skipped behind this one check.
	var ins *instr
	if en.wantSnapshot && en.opts.SnapshotEvery > 0 {
		ins = newInstr(1)
		smp := startSampler(en.obs, en.opts.SnapshotEvery, start, ins.snapshot)
		defer smp.stop()
	}

	init, err := ctx.initial()
	if err != nil {
		return res, err
	}
	if !goal.Deadlock && goal.Satisfied(init.locs, init.env) {
		res.Found = true
		res.Stats.Duration = time.Since(start)
		return res, nil
	}

	var store stateStore
	switch {
	case en.opts.Search == BSH:
		table, err := newBitTable(en.opts.HashBits)
		if err != nil {
			return res, err
		}
		store = &bitStore{table: table}
	case en.opts.Compact:
		store = newCompactStore(en.opts.Inclusion)
	default:
		store = newMapStore(en.opts.Inclusion)
	}
	front := newFrontier(en.opts)

	// Memory accounting: nodes retained by the store are counted there
	// exactly once, and waiting entries add only slot overhead; with the
	// bit table the store holds no nodes, so the frontier carries the full
	// node bytes (and gets them back on pop).
	retained := store.retainsNodes()
	waitingCost := func(n *node) int64 {
		if retained {
			return waitingSlot
		}
		return n.memBytes()
	}

	ck, err := newCheckpointer(&en.opts)
	if err != nil {
		return res, err
	}
	var waitingBytes int64
	var peakMem int64
	resumed := false
	if ck != nil {
		rs, err := ck.resume(store)
		if err != nil {
			return res, err
		}
		if rs != nil {
			// Continue where the checkpoint left off: the store is seeded in
			// its exact saved order, the frontier restored in pop order, and
			// the counters are cumulative across the interrupted runs — the
			// rest of the loop proceeds bit-identically to a run that was
			// never stopped. Checkpointable stores all retain their nodes, so
			// waiting entries cost only the slot overhead.
			res.Resumed = true
			resumed = true
			restoreFrontier(front, rs.frontier, rs.prios)
			waitingBytes = int64(front.len()) * waitingSlot
			applyStats(st, rs.stats, len(en.sys.Automata))
			peakMem = rs.stats.PeakMemBytes
		}
		ck.startTicker()
		defer ck.stopTicker()
	}
	var found *node
	var warm *warmState
	if !resumed && en.opts.WarmStart.enabled() {
		// Warm start: seed the store from another model's checkpoint (every
		// state re-validated — see WarmStartOptions), push the seed's
		// surviving frontier, and try the seeded goal states as instant
		// witnesses via full replay on this model.
		if warm = warmSeed(ctx, store, goal); warm != nil {
			res.WarmStarted = true
			st.WarmSeeded = len(warm.seeded)
			st.WarmDropped = warm.dropped
			for _, n := range warm.frontier {
				front.push(n)
				waitingBytes += waitingCost(n)
				if n.czone != nil {
					ctx.releaseNode(n)
				}
			}
			for i, g := range warm.goals {
				if i >= warmReplayCap {
					break
				}
				if rep := ctx.replayTrace(traceOf(g), goal); rep != nil {
					found = rep
					break
				}
			}
		}
	}
	if !resumed {
		if store.add(ctx.stateKey(init), init) {
			front.push(init)
			waitingBytes += waitingCost(init)
			if init.czone != nil {
				// The compact store holds the exact zone; waiting nodes travel
				// without their O(n²) matrix.
				ctx.releaseNode(init)
			}
		} else {
			// Only possible under a warm start: a seeded state already
			// subsumes the initial state, so its (old-model) expansion
			// stands in for init's — the pruning the warm start exists for,
			// and the reason warm negatives are advisory.
			ctx.recycleNode(init)
		}
	}

	// The plant's priority heuristic (Observer/Prioritizer) orders
	// successor exploration; BSH keeps its historical yield order
	// (priorities were never applied to the supertrace search and
	// reordering would change which states its lossy table prunes).
	usePriority := en.prio != nil && en.opts.Search != BSH

	var succBuf []*node
	for front.len() > 0 && found == nil {
		ss := store.stats()
		mem := ss.bytes + waitingBytes
		if mem > peakMem {
			peakMem = mem
		}
		if ck != nil && ck.req.Load() {
			// Periodic snapshot at the loop's safe point: every frontier node
			// is store-added, compact-parked nodes carry their minimal form,
			// and ancestors need only their trace links.
			ck.req.Store(false)
			if err := ck.saveSeq(store, front, st, peakMem, time.Since(start)); err != nil {
				return res, err
			}
		}
		if reason := en.checkLimits(st, mem); reason != AbortNone {
			res.Abort = reason
			if ck != nil {
				// Abort-time durability: timeouts, cancellations (a serve
				// drain), and state/memory cutoffs leave a resumable file.
				if err := ck.saveSeq(store, front, st, peakMem, time.Since(start)); err != nil {
					return res, err
				}
			}
			break
		}
		n := front.pop()
		waitingBytes -= waitingCost(n)
		if n.subsumed.Load() {
			// A larger zone took over this discrete state; the store has
			// already dropped the node and it was never expanded, so both
			// the zone and the struct are free to recycle.
			ctx.recycleNode(n)
			continue
		}
		if n.zone == nil && n.czone != nil {
			// Compact store: the matrix was released when n was parked on the
			// frontier; rebuild it (exactly) for expansion.
			n.zone = ctx.inflateZone(n.czone)
		}
		st.StatesExplored++
		if n.depth > st.MaxDepth {
			st.MaxDepth = n.depth
		}
		if en.wantVisit {
			en.obs.StateVisited(StateVisit{Locs: n.locs, Env: n.env, Depth: n.depth})
		}
		hadSucc := false
		succBuf = succBuf[:0]
		ctx.successors(n, func(s *node) {
			hadSucc = true
			st.Transitions++
			if en.opts.Profile {
				if st.ByAutomaton == nil {
					st.ByAutomaton = make([]int, len(en.sys.Automata))
				}
				st.ByAutomaton[s.via.A1]++
			}
			if found != nil {
				ctx.recycleNode(s)
				return
			}
			if !store.add(ctx.stateKey(s), s) {
				ctx.recycleNode(s)
				return
			}
			if !goal.Deadlock && goal.Satisfied(s.locs, s.env) {
				found = s
				return
			}
			succBuf = append(succBuf, s)
		})
		if usePriority && len(succBuf) > 1 {
			// Order so that higher-priority transitions are explored
			// first: DFS pops the last push, BFS the first.
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
		for _, s := range succBuf {
			waitingBytes += waitingCost(s)
			front.push(s)
			if s.czone != nil {
				// Park the successor without its matrix (BestTime has taken
				// its heap priority from the zone during push above).
				ctx.releaseNode(s)
			}
		}
		if w := front.len(); w > st.PeakWaiting {
			st.PeakWaiting = w
		}
		if !hadSucc {
			st.Deadends++
			if en.wantDeadend {
				en.obs.Deadend(StateVisit{Locs: n.locs, Env: n.env, Depth: n.depth})
			}
			if goal.Deadlock && goal.Satisfied(n.locs, n.env) {
				found = n
			}
		}
		// n has been expanded: if the store can reconstruct its zone (compact
		// form) or never references it (bit table), the matrix is recyclable.
		if n.czone != nil || !retained {
			ctx.releaseNode(n)
		}
		if ins != nil {
			ins.explored.Store(int64(st.StatesExplored))
			ins.transitions.Store(int64(st.Transitions))
			ins.waiting.Store(int64(front.len()))
			ins.peakWaiting.Store(int64(st.PeakWaiting))
			ins.maxDepth.Store(int64(st.MaxDepth))
			ins.deadends.Store(int64(st.Deadends))
			ins.stored.Store(int64(ss.count))
			ins.storeBytes.Store(ss.bytes)
			ins.memBytes.Store(mem)
		}
	}

	ss := store.stats()
	st.StatesStored = ss.count
	st.DiscreteStates = ss.discrete
	st.Evictions = ss.evictions
	st.StoreBytes = ss.bytes
	if ss.constraints > 0 && ss.count > 0 {
		st.AvgZoneConstraints = float64(ss.constraints) / float64(ss.count)
	}
	st.MemBytes = ss.bytes + waitingBytes
	if peakMem > st.MemBytes {
		st.MemBytes = peakMem
	}
	st.Duration = time.Since(start)
	if found != nil && warm != nil && !warm.isFresh(found) {
		// The witness runs through a seeded (foreign-model) prefix: its
		// ancestors' zones were inherited, not derived on this model, so the
		// trace must be re-derived by replay before it can be reported. A
		// replay failure means the seed lied about reachability — surface it
		// as ErrWarmStart so callers can rerun cold.
		rep := ctx.replayTrace(traceOf(found), goal)
		if rep == nil {
			return res, fmt.Errorf("%w (seeded prefix of length %d)", ErrWarmStart, found.depth)
		}
		found = rep
	}
	if found != nil {
		res.Found = true
		res.Trace = traceOf(found)
	}
	if ck != nil {
		if res.Abort == AbortNone && en.opts.Checkpoint.KeepFinal {
			// Stamp the snapshot as Final and persist it: useless for resume
			// (load refuses Final files) but exactly what a later warm start
			// of a nearby model wants to seed from.
			ck.final = true
			if err := ck.saveSeq(store, front, st, peakMem, time.Since(start)); err != nil {
				return res, err
			}
		}
		ck.stamp(st)
		if res.Abort == AbortNone && !en.opts.Checkpoint.KeepFinal {
			// The search has its answer; a stale checkpoint must not seed a
			// later run.
			ck.finish()
		}
	}
	return res, nil
}

// checkLimits enforces the cancellation and state/memory cutoffs between
// expansions (timeouts arrive through the context; see ExploreContext).
func (en *engine) checkLimits(st *Stats, mem int64) AbortReason {
	select {
	case <-en.done:
		return ctxAbort(en.ctx)
	default:
	}
	if en.opts.MaxStates > 0 && st.StatesExplored >= en.opts.MaxStates {
		return AbortStates
	}
	if en.opts.MaxMemory > 0 && mem > en.opts.MaxMemory {
		st.MemBytes = mem
		return AbortMemory
	}
	return AbortNone
}

// traceOf walks parent pointers back to the initial state.
func traceOf(n *node) []Transition {
	trace := make([]Transition, n.depth)
	for cur := n; cur.parent != nil; cur = cur.parent {
		trace[cur.depth-1] = cur.via
	}
	return trace
}
