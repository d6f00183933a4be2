package mc

import (
	"cmp"
	"slices"

	"guidedta/internal/snapshot"
)

// counters are the cumulative effort counters of a search, or one parallel
// worker's share of them: what Stats reports and what a checkpoint carries
// across a resume. Each worker writes only its own.
type counters struct {
	explored    int
	transitions int
	deadends    int
	maxDepth    int
	peakWaiting int
	steals      int64
	// peakMem is the peak accounted search memory: store plus frontier for
	// the sequential search, the store alone for the parallel one (whose
	// frontier share is charged at the end from the global peak waiting).
	peakMem     int64
	byAutomaton []int // generated transitions per initiating automaton (Profile only)
	// inflates counts the matrices rebuilt from a compact-parked zone for
	// expansion. It is a cost gauge for tests: neither Stats nor a
	// checkpoint carries it.
	inflates int
}

// countersOf restores a checkpoint's counters. nAutomata sizes the profile
// slice so the kernel's per-automaton increments stay in bounds even
// against a short (older-model) profile vector.
func countersOf(s snapshot.Stats, nAutomata int) counters {
	k := counters{
		explored:    int(s.StatesExplored),
		transitions: int(s.Transitions),
		deadends:    int(s.Deadends),
		maxDepth:    int(s.MaxDepth),
		peakWaiting: int(s.PeakWaiting),
		steals:      s.Steals,
		peakMem:     s.PeakMemBytes,
	}
	if len(s.ByAutomaton) > 0 {
		k.byAutomaton = make([]int, max(len(s.ByAutomaton), nAutomata))
		for i, v := range s.ByAutomaton {
			k.byAutomaton[i] = int(v)
		}
	}
	return k
}

// merge folds o into k: sums of the counts, maxima of the watermarks.
func (k *counters) merge(o *counters) {
	k.explored += o.explored
	k.transitions += o.transitions
	k.deadends += o.deadends
	k.maxDepth = max(k.maxDepth, o.maxDepth)
	k.peakWaiting = max(k.peakWaiting, o.peakWaiting)
	k.steals += o.steals
	k.peakMem = max(k.peakMem, o.peakMem)
	k.inflates += o.inflates
	if len(o.byAutomaton) > len(k.byAutomaton) {
		grown := make([]int, len(o.byAutomaton))
		copy(grown, k.byAutomaton)
		k.byAutomaton = grown
	}
	for i, v := range o.byAutomaton {
		k.byAutomaton[i] += v
	}
}

// report writes the counters into st's effort fields.
func (k *counters) report(st *Stats) {
	st.StatesExplored = k.explored
	st.Transitions = k.transitions
	st.Deadends = k.deadends
	st.MaxDepth = k.maxDepth
	st.PeakWaiting = k.peakWaiting
	st.Steals = k.steals
	st.ByAutomaton = k.byAutomaton
}

// snapshot converts the counters to their checkpoint form.
func (k *counters) snapshot() snapshot.Stats {
	s := snapshot.Stats{
		StatesExplored: int64(k.explored),
		Transitions:    int64(k.transitions),
		Deadends:       int64(k.deadends),
		MaxDepth:       int64(k.maxDepth),
		PeakWaiting:    int64(k.peakWaiting),
		Steals:         k.steals,
		PeakMemBytes:   k.peakMem,
	}
	if len(k.byAutomaton) > 0 {
		s.ByAutomaton = make([]int64, len(k.byAutomaton))
		for i, v := range k.byAutomaton {
			s.ByAutomaton[i] = int64(v)
		}
	}
	return s
}

// limit enforces the cancellation and state/memory cutoffs between
// expansions (timeouts arrive through the context; see ExploreContext),
// given the search's explored count and accounted memory.
func (en *engine) limit(explored int, mem int64) AbortReason {
	select {
	case <-en.done:
		return ctxAbort(en.ctx)
	default:
	}
	if en.opts.MaxStates > 0 && explored >= en.opts.MaxStates {
		return AbortStates
	}
	if en.opts.MaxMemory > 0 && mem > en.opts.MaxMemory {
		return AbortMemory
	}
	return AbortNone
}

// worker is one search worker: the engineCtx scratch it expands with and
// the counters it accumulates. The sequential search runs one, the
// parallel search one per goroutine; both drive the same kernel, expand.
type worker struct {
	counters
	c  *engineCtx
	s  *search
	id int
	// retained says whether the store keeps expanded nodes (see
	// stateStore.retainsNodes); if not, their matrices are recyclable.
	retained bool
	succ     []*node // successor buffer, reused across expansions
}

// expand is the expansion kernel of both search loops. For a node
// popped from the frontier it skips the node if the store has evicted it;
// otherwise it inflates a compact-parked zone, counts the node, generates
// its successors, offers each to the store, checks the goal, orders the
// survivors by priority, handles a deadend, and releases the node's
// matrix. It returns the successors to queue in exploration order (valid
// until the next call, and still holding their matrices: the loop parks
// them), the goal node if n or one of its successors reached the goal,
// and whether n was expanded at all.
func (w *worker) expand(n *node) (succ []*node, hit *node, expanded bool) {
	c, s := w.c, w.s
	en := c.en
	if n.subsumed.Load() {
		// A larger zone took over this discrete state; the store has
		// already dropped the node and it was never expanded, so both the
		// zone and the struct are free to recycle (the store's last touch
		// of the node happens-before the subsumed flag just loaded).
		c.recycleNode(n)
		return nil, nil, false
	}
	if n.zone == nil && n.czone != nil {
		// Compact store: the matrix was released when n was parked on the
		// frontier; rebuild it (exactly) for expansion.
		n.zone = c.inflateZone(n.czone)
		w.inflates++
	}
	w.explored++
	if n.depth > w.maxDepth {
		w.maxDepth = n.depth
	}
	if visit := en.obs.OnVisit; visit != nil {
		s.mu.Lock()
		visit(StateVisit{Locs: n.locs, Env: n.env, Depth: n.depth, Worker: w.id})
		s.mu.Unlock()
	}
	hadSucc := false
	succ = w.succ[:0]
	c.successors(n, func(x *node) {
		hadSucc = true
		w.transitions++
		if en.opts.Profile {
			if w.byAutomaton == nil {
				w.byAutomaton = make([]int, len(en.sys.Automata))
			}
			w.byAutomaton[x.via.A1]++
		}
		if hit != nil || s.halt.Load() {
			c.recycleNode(x)
			return
		}
		if !c.offer(s.store, c.stateKey(x), x) {
			c.recycleNode(x)
			return
		}
		if !s.goal.Deadlock && s.goal.Satisfied(x.locs, x.env) {
			hit = x
			return
		}
		succ = append(succ, x)
	})
	w.succ = succ
	// The plant's priority heuristic (FuncObserver.Priority) orders
	// successor exploration so that higher-priority transitions are
	// explored first: DFS pops the last push, BFS the first. BSH keeps its
	// historical yield order (priorities were never applied to the
	// supertrace search and reordering would change which states its
	// lossy table prunes).
	if prio := en.obs.Priority; prio != nil && en.opts.Search != BSH && len(succ) > 1 {
		if en.opts.Search == DFS {
			slices.SortStableFunc(succ, func(a, b *node) int {
				return cmp.Compare(prio(a.via), prio(b.via))
			})
		} else {
			slices.SortStableFunc(succ, func(a, b *node) int {
				return cmp.Compare(prio(b.via), prio(a.via))
			})
		}
	}
	if !hadSucc {
		w.deadends++
		if s.goal.Deadlock && s.goal.Satisfied(n.locs, n.env) {
			hit = n
		}
	}
	// n has been expanded: if the store can reconstruct its zone (compact
	// form) or never references it (bit table), the matrix is recyclable.
	if n.czone != nil || !w.retained {
		c.releaseNode(n)
	}
	return succ, hit, true
}
