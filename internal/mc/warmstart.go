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
// compensates with per-state re-validation:
//
//   - every seeded state is structurally checked against the current model
//     (automata count, location indices, integer-store width) and its zone
//     is re-constrained by the current invariants; states that no longer
//     fit are dropped (Stats.WarmDropped);
//   - seeded states enter the passed store through the ordinary subsuming
//     add path, never the exact-resume seed path, so the antichain
//     invariant holds by construction;
//   - any witness whose path crosses seeded states — including the
//     instant witnesses taken directly from seeded goal states — is
//     replayed transition by transition from this model's initial state
//     before it is reported; a deadlock witness additionally has its
//     successor-freeness recomputed on the replayed (this-model) zone,
//     which can be strictly larger than the seeded zone it was found
//     through. A seeded path that does not replay is never
//     returned: instant candidates are skipped, and a search-found witness
//     with an invalid seeded prefix fails the run with ErrWarmStart so the
//     caller can fall back to a cold search.
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
// before falling back to ordinary exploration: each replay costs one
// trace-length walk of fire(), and a seed store can hold many goal states
// that all fail the same way on the new model.
const warmReplayCap = 8

// warmState is what a warm seed left behind: the accepted nodes (for
// witness tainting), the seeded goal candidates in store order, and the
// frontier nodes to push.
type warmState struct {
	seeded   map[*node]struct{}
	goals    []*node
	frontier []*node
	dropped  int
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

// warmSeed loads the seed checkpoint and feeds its store through the
// re-validation pipeline into this search's store. It returns nil when the
// seed is unusable as a whole (missing, corrupt, foreign file) — the
// search then starts cold.
func warmSeed(c *engineCtx, store stateStore, goal Goal) *warmState {
	en := c.en
	cp, err := snapshot.Load(en.opts.WarmStart.Path)
	if err != nil {
		return nil
	}

	nn := int32(len(cp.Nodes))
	envLen := len(en.sys.Table.NewEnv())

	// Screen 1 — discrete-state shape: the seed may come from a network
	// with different automata, location counts, or integer-store width.
	stateOK := make([]bool, nn)
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
		stateOK[i] = ok
	}

	// Screen 2 — ancestor-chain consistency: traceOf indexes by depth down
	// the parent chain, so a seeded state is only usable if every ancestor
	// link satisfies depth == parent.depth+1 back to a depth-0 root (and
	// the chain is acyclic — Decode checks indices, not graph shape).
	// Memoized upward walk, cycle-guarded by the chain-length bound.
	chainState := make([]int8, nn) // 0 unknown, 1 ok, 2 bad
	var walk []int32
	chainOK := func(i int32) bool {
		walk = walk[:0]
		j := i
		for chainState[j] == 0 {
			sn := &cp.Nodes[j]
			if sn.Parent < 0 {
				if sn.Depth == 0 {
					chainState[j] = 1
				} else {
					chainState[j] = 2
				}
				break
			}
			walk = append(walk, j)
			if int32(len(walk)) > nn { // parent cycle
				chainState[j] = 2
				break
			}
			j = sn.Parent
		}
		for k := len(walk) - 1; k >= 0; k-- {
			cix := walk[k]
			p := cp.Nodes[cix].Parent
			if chainState[p] == 1 && cp.Nodes[cix].Depth == cp.Nodes[p].Depth+1 {
				chainState[cix] = 1
			} else {
				chainState[cix] = 2
			}
		}
		return chainState[i] == 1
	}

	nodes := treeOf(cp)
	frontSet := make(map[int32]bool, len(cp.Frontier))
	for _, fe := range cp.Frontier {
		frontSet[fe.Node] = true
	}

	w := &warmState{seeded: make(map[*node]struct{})}
	for _, ix := range cp.Store {
		sn := &cp.Nodes[ix]
		if !stateOK[ix] || !chainOK(ix) {
			w.dropped++
			continue
		}
		// Rebuild the zone as a full DBM regardless of its stored form —
		// the subsuming add path needs matrices, and the seed's store kind
		// (its options) need not match this run's.
		var z *dbm.DBM
		switch {
		case sn.Zone.Kind == snapshot.ZoneFull && sn.Zone.Dim == en.nClocks:
			z, err = dbm.FromBounds(sn.Zone.Dim, sn.Zone.Bounds)
			if err != nil {
				w.dropped++
				continue
			}
		case sn.Zone.Kind == snapshot.ZoneCompact && sn.Zone.Dim == en.nClocks:
			cz, cerr := dbm.NewCompact(sn.Zone.Dim, sn.Zone.Cons)
			if cerr != nil {
				w.dropped++
				continue
			}
			z = c.inflateZone(cz)
		default:
			w.dropped++
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
			w.dropped++
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
		if !goal.Deadlock && goal.Satisfied(n.locs, n.env) {
			w.goals = append(w.goals, n)
		}
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
	return w
}

// replayTrace re-derives a symbolic run for trace from this model's
// initial state, enforcing everything the search loop would have: the
// legal-step rule of checkStep and non-empty zones through fire (clock
// guards, invariants, delay closure). Returns the final node — whose
// traceOf is exactly trace — or nil if any step fails or the final state
// misses the goal's discrete conditions. For deadlock goals the
// deadlock-ness is rechecked on the replayed node: re-validation only
// intersects a seeded zone with this model's invariants, so when this
// model relaxes a guard or invariant along the path (an extended
// deadline) the replayed zone can be strictly larger than the seeded one
// and have successors it lacked. Requiring the freshly computed successor
// set of the replayed node to be empty is what makes a replayed deadlock
// witness a witness of THIS model.
func (c *engineCtx) replayTrace(trace []Transition, goal Goal) *node {
	cur, err := c.initial()
	if err != nil {
		return nil
	}
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
