package mc

import (
	"errors"

	"guidedta/internal/dbm"
	"guidedta/internal/snapshot"
)

// WarmStartOptions configures warm-start exploration (Options.WarmStart):
// seeding a search from the checkpoint of a prior run of a *different*,
// nearly identical model — a re-synthesis after plant wear, a deadline
// shift, a unit loss. Where exact resume (CheckpointOptions.Resume)
// enforces model/options identity and reproduces the interrupted run
// bit-identically, a warm start deliberately crosses the identity line and
// compensates with per-state re-validation.
//
// A warm start loads the seed once and works in two steps:
//
//   - Replay. The seed's goal states, in its store order, are instant
//     witness candidates: up to warmReplayCap of them that pass the
//     structural screens below are replayed transition by transition
//     from this model's initial state (Stats.WarmReplays). The first that
//     replays is the answer. The run then seeds nothing: its store and
//     frontier hold just the replayed path, none of it expanded, so a
//     kept-final snapshot of such a run (CheckpointOptions.KeepFinal)
//     holds at most the trace length plus one states, all of this model.
//     Deadlock goals have no instant candidates.
//   - Seed, only when no candidate replays. Every seeded state is
//     structurally checked against the current model (automata count,
//     location indices, integer-store width, zone dimension, ancestor
//     chain) and its zone is re-constrained by the current invariants;
//     states that no longer fit are dropped (Stats.WarmDropped, split by
//     reason). Seeded states enter the passed store through the ordinary
//     subsuming add path, never the exact-resume seed path, so the
//     antichain invariant holds by construction, and the seed's surviving
//     frontier is queued before the initial state.
//
// A witness whose path crosses seeded states is replayed from this
// model's initial state before it is reported; a deadlock witness
// additionally has its successor-freeness recomputed on the replayed
// (this-model) zone, which can be strictly larger than the seeded zone it
// was found through. A seeded path that does not replay is never
// returned: a failed instant candidate is skipped, and a search-found
// witness with an invalid seeded prefix fails the run with ErrWarmStart
// so the caller can fall back to a cold search.
//
// The one claim a warm start weakens is the negative one: a seeded state
// can subsume (and thereby prune) a state the current model would have
// explored to a goal, so Found == false under WarmStarted is advisory
// (Result.WarmStarted documents this). Callers that must trust a negative
// rerun cold — the serving layer does exactly that.
//
// Like Checkpoint, WarmStart is a process-local concern excluded from the
// canonical options JSON. Seeding and replay validation belong to the run
// prologue and epilogue both search loops share, so a warm start runs
// sequentially or in parallel like a cold one; the BSH order is rejected
// because its bit table stores only hashes. A missing or
// unreadable seed file degrades to a cold search rather than an error —
// warm starting is opportunistic.
type WarmStartOptions struct {
	// Path is the seed checkpoint, typically another model's completed
	// search kept with CheckpointOptions.KeepFinal.
	Path string
}

func (w WarmStartOptions) enabled() bool { return w.Path != "" }

// ErrWarmStart wraps the one warm-start failure that cannot degrade
// silently: the search found a goal through warm-seeded states but the
// witness path does not replay on this model. Returning it (instead of a
// possibly false positive) lets the caller rerun cold.
var ErrWarmStart = errors.New("mc: warm-started witness failed replay validation")

// warmReplayCap bounds how many seeded goal candidates the search replays
// before falling back to seeding: each replay costs one trace-length walk
// of fire(), and a seed store can hold many goal states that all fail the
// same way on the new model.
const warmReplayCap = 8

// warmState is what a warm start did: the accepted nodes (for witness
// tainting), the frontier nodes to push, and the counters Stats reports.
type warmState struct {
	seeded   map[*node]struct{}
	frontier []*node
	replays  int
	// Drops by reason: a state that does not fit this model's shape, one
	// whose ancestor chain is broken, one the new invariants empty.
	droppedShape, droppedChain, droppedEmptied int
}

// isFresh reports whether n's ancestor chain avoids every warm-seeded
// state; such a witness was computed entirely on this model and needs no
// replay validation.
func (w *warmState) isFresh(n *node) bool {
	for c := n; c != nil; c = c.parent {
		if _, ok := w.seeded[c]; ok {
			return false
		}
	}
	return true
}

// warmSeed is a loaded seed checkpoint with its search tree rebuilt and
// the two structural screens the replay and the seeding steps share.
type warmSeed struct {
	cp    *snapshot.Checkpoint
	nodes []*node
	// shapeOK[i]: node i carries a discrete state of this model's shape.
	shapeOK []bool
	// chain[i] memoizes node i's ancestor-chain screen: 0 unknown, 1 ok,
	// 2 bad.
	chain []int8
	walk  []int32
}

// loadWarmSeed loads the seed checkpoint and runs the shape screen. It
// returns nil when the seed is unusable as a whole (missing, corrupt,
// foreign file) — the search then starts cold.
func loadWarmSeed(en *engine) *warmSeed {
	cp, err := snapshot.Load(en.opts.WarmStart.Path)
	if err != nil {
		return nil
	}
	envLen := len(en.sys.Table.NewEnv())
	// Screen 1 — discrete-state shape: the seed may come from a network
	// with different automata, location counts, or integer-store width.
	shapeOK := make([]bool, len(cp.Nodes))
	for i := range cp.Nodes {
		sn := &cp.Nodes[i]
		if !sn.HasState || len(sn.Locs) != len(en.sys.Automata) || len(sn.Env) != envLen {
			continue
		}
		ok := true
		for ai, loc := range sn.Locs {
			if loc < 0 || int(loc) >= len(en.sys.Automata[ai].Locations) {
				ok = false
				break
			}
		}
		shapeOK[i] = ok
	}
	return &warmSeed{cp: cp, nodes: treeOf(cp), shapeOK: shapeOK, chain: make([]int8, len(cp.Nodes))}
}

// chainOK is screen 2 — ancestor-chain consistency: traceOf indexes by
// depth down the parent chain, so a seeded state is only usable if every
// ancestor link satisfies depth == parent.depth+1 back to a depth-0 root
// (and the chain is acyclic — Decode checks indices, not graph shape).
// Memoized upward walk, cycle-guarded by the chain-length bound.
func (ws *warmSeed) chainOK(i int32) bool {
	nodes, chain := ws.cp.Nodes, ws.chain
	walk := ws.walk[:0]
	j := i
	for chain[j] == 0 {
		sn := &nodes[j]
		if sn.Parent < 0 {
			if sn.Depth == 0 {
				chain[j] = 1
			} else {
				chain[j] = 2
			}
			break
		}
		walk = append(walk, j)
		if len(walk) > len(nodes) { // parent cycle
			chain[j] = 2
			break
		}
		j = sn.Parent
	}
	for k := len(walk) - 1; k >= 0; k-- {
		cix := walk[k]
		p := nodes[cix].Parent
		if chain[p] == 1 && nodes[cix].Depth == nodes[p].Depth+1 {
			chain[cix] = 1
		} else {
			chain[cix] = 2
		}
	}
	ws.walk = walk
	return chain[i] == 1
}

// replay is the first step: it walks the seed's store order and replays,
// from root (this run's initial node, left untouched), up to
// warmReplayCap screened goal candidates. It returns the first replayed
// witness node, or nil.
func (ws *warmSeed) replay(c *engineCtx, root *node, goal Goal, w *warmState) *node {
	if goal.Deadlock {
		return nil
	}
	for _, ix := range ws.cp.Store {
		if w.replays == warmReplayCap {
			break
		}
		sn := &ws.cp.Nodes[ix]
		if !ws.shapeOK[ix] || !goal.Satisfied(sn.Locs, sn.Env) || !ws.chainOK(ix) {
			continue
		}
		w.replays++
		if found := c.replayTrace(root, traceOf(ws.nodes[ix]), goal); found != nil {
			return found
		}
	}
	return nil
}

// seed is the second step, run when no candidate replays: it feeds the
// seed's store through the re-validation pipeline into this search's
// store and collects the surviving frontier in the seed's order.
func (ws *warmSeed) seed(c *engineCtx, store stateStore, w *warmState) {
	en, cp, nodes := c.en, ws.cp, ws.nodes
	frontSet := make(map[int32]bool, len(cp.Frontier))
	for _, fe := range cp.Frontier {
		frontSet[fe.Node] = true
	}

	w.seeded = make(map[*node]struct{})
	for _, ix := range cp.Store {
		sn := &cp.Nodes[ix]
		if !ws.shapeOK[ix] {
			w.droppedShape++
			continue
		}
		if !ws.chainOK(ix) {
			w.droppedChain++
			continue
		}
		// Rebuild the zone as a full DBM regardless of its stored form —
		// the subsuming add path needs matrices, and the seed's store kind
		// (its options) need not match this run's.
		var z *dbm.DBM
		switch {
		case sn.Zone.Kind == snapshot.ZoneFull && sn.Zone.Dim == en.nClocks:
			var err error
			if z, err = dbm.FromBounds(sn.Zone.Dim, sn.Zone.Bounds); err != nil {
				w.droppedShape++
				continue
			}
		case sn.Zone.Kind == snapshot.ZoneCompact && sn.Zone.Dim == en.nClocks:
			cz, err := dbm.NewCompact(sn.Zone.Dim, sn.Zone.Cons)
			if err != nil {
				w.droppedShape++
				continue
			}
			z = c.inflateZone(cz)
		default:
			w.droppedShape++
			continue
		}
		n := nodes[ix]
		if _, dup := w.seeded[n]; dup { // duplicate store index in the file
			c.freeZone(z)
			continue
		}
		n.locs, n.env = sn.Locs, sn.Env
		// Re-validate against THIS model: constrain by the current
		// invariants and drop the state if they empty it. The zone is
		// already delay-closed (it was a live search zone) and is not
		// re-extrapolated — both operations could only enlarge it, and
		// shrinking is the safe direction for a state that will prune
		// future exploration.
		if !c.applyInvariants(n.locs, z) {
			c.freeZone(z)
			n.locs, n.env = nil, nil
			w.droppedEmptied++
			continue
		}
		n.zone = z
		if !store.add(c.stateKey(n), n) {
			// Subsumed by an earlier seeded state; its information is
			// already covered.
			c.freeZone(z)
			n.zone = nil
			continue
		}
		w.seeded[n] = struct{}{}
		if n.czone != nil && !frontSet[ix] {
			// The compact store holds the minimal form; only frontier
			// members keep their matrix until they are pushed (the
			// BestTime heap takes its priority from the zone).
			c.releaseNode(n)
		}
	}

	// Frontier, in the seed's exact order: only nodes that made it into
	// the store and were not since evicted by a subsuming sibling.
	pushed := make(map[*node]bool, len(cp.Frontier))
	for _, fe := range cp.Frontier {
		n := nodes[fe.Node]
		if pushed[n] || n.subsumed.Load() {
			continue
		}
		if _, ok := w.seeded[n]; !ok {
			continue
		}
		pushed[n] = true
		w.frontier = append(w.frontier, n)
	}
}

// keepPath offers an instant witness's replayed path to the store, root
// first, and returns the nodes the store kept: the run's frontier, since
// none of them has been expanded.
func (c *engineCtx) keepPath(store stateStore, found *node) []*node {
	path := make([]*node, found.depth+1)
	for n := found; n != nil; n = n.parent {
		path[n.depth] = n
	}
	kept := path[:0]
	for _, n := range path {
		if c.offer(store, c.stateKey(n), n) {
			kept = append(kept, n)
		}
	}
	return kept
}

// replayTrace re-derives a symbolic run for trace from root, this model's
// initial state, enforcing everything the search loop would have: the
// legal-step rule of checkStep and non-empty zones through fire (clock
// guards, invariants, delay closure). root is not modified. Returns the
// final node — whose traceOf is exactly trace — or nil if any step fails
// or the final state misses the goal's discrete conditions. For deadlock
// goals the deadlock-ness is rechecked on the replayed node: re-validation
// only intersects a seeded zone with this model's invariants, so when this
// model relaxes a guard or invariant along the path (an extended
// deadline) the replayed zone can be strictly larger than the seeded one
// and have successors it lacked. Requiring the freshly computed successor
// set of the replayed node to be empty is what makes a replayed deadlock
// witness a witness of THIS model.
func (c *engineCtx) replayTrace(root *node, trace []Transition, goal Goal) *node {
	cur := root
	for _, t := range trace {
		if _, _, err := checkStep(c.en.sys, cur.locs, cur.env, t); err != nil {
			return nil
		}
		next := c.fire(cur, t)
		if next == nil {
			return nil
		}
		cur = next
	}
	if !goal.Satisfied(cur.locs, cur.env) {
		return nil
	}
	if goal.Deadlock {
		deadlocked := true
		c.successors(cur, func(s *node) {
			deadlocked = false
			c.recycleNode(s)
		})
		if !deadlocked {
			return nil
		}
	}
	return cur
}
