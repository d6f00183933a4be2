package mc

import (
	"guidedta/internal/snapshot"
)

// WarmStartOptions configures a warm start (Options.WarmStart): answering
// a query by replaying the witness of a prior run of a *different*,
// nearly identical model — a re-synthesis after plant wear, a deadline
// shift, a unit loss. Where exact resume (CheckpointOptions.Resume)
// enforces model/options identity and reproduces the interrupted run
// bit-identically, a warm start deliberately crosses the identity line
// and takes nothing from the seed but paths to try.
//
// A warm start loads the seed once and takes its store entries, in store
// order, as witness candidates: up to warmReplayCap of them that pass the
// two structural screens below and satisfy the goal are replayed
// transition by transition from this model's initial state
// (Stats.WarmReplays). A kept-final seed (CheckpointOptions.KeepFinal)
// holds one candidate, its witness path's goal state; an abort-time seed
// may hold many. The first that replays is the answer: the run stores
// nothing and expands nothing, and its own kept-final snapshot is the
// replayed path.
//
// When no candidate replays — and when the seed file is missing,
// unreadable or of another network's shape, or the goal is a deadlock,
// which has no candidates — the same run goes on exactly as a cold search
// from the initial state: same verdict, explored and stored counts, and
// trace. Nothing of the seed enters the store, so the soundness argument
// is one sentence: every witness a warm start reports was replayed from
// this model's initial state.
//
// Like Checkpoint, WarmStart is a process-local concern excluded from the
// canonical options JSON. The replay belongs to the run prologue both
// search loops share, so a warm start runs sequentially or in parallel
// like a cold one; the BSH order is rejected because its bit table
// stores only hashes.
type WarmStartOptions struct {
	// Path is the seed checkpoint, typically another model's witness path
	// kept with CheckpointOptions.KeepFinal.
	Path string
}

func (w WarmStartOptions) enabled() bool { return w.Path != "" }

// warmReplayCap bounds how many of the seed's goal candidates a warm start
// replays before it searches cold: each replay costs one trace-length walk
// of fire(), and an abort-time seed can hold many goal states that all
// fail the same way on the new model.
const warmReplayCap = 8

// warmReplay loads the seed checkpoint and replays, from root (this run's
// initial node, left untouched), up to warmReplayCap of its goal
// candidates. It returns the first replayed witness node, or nil, and the
// number of candidates it replayed. A missing, corrupt or foreign seed has
// no candidates.
func (c *engineCtx) warmReplay(root *node, goal Goal) (found *node, replays int) {
	cp, err := snapshot.Load(c.en.opts.WarmStart.Path)
	if err != nil {
		return nil, 0
	}
	for _, ix := range cp.Store {
		if replays == warmReplayCap {
			break
		}
		sn := &cp.Nodes[ix]
		if !c.shapeOK(sn) || !goal.Satisfied(sn.Locs, sn.Env) {
			continue
		}
		trace := seedTrace(cp.Nodes, ix)
		if trace == nil {
			continue
		}
		replays++
		if found := c.replayTrace(root, trace, goal); found != nil {
			return found, replays
		}
	}
	return nil, replays
}

// shapeOK is screen 1 — discrete-state shape: a seed node may come from a
// network with different automata, location counts, or integer-store
// width, and only a node of this model's shape can be goal-checked.
func (c *engineCtx) shapeOK(sn *snapshot.Node) bool {
	sys := c.en.sys
	if !sn.HasState || len(sn.Locs) != len(sys.Automata) || len(sn.Env) != sys.Table.Size() {
		return false
	}
	for ai, loc := range sn.Locs {
		if loc < 0 || int(loc) >= len(sys.Automata[ai].Locations) {
			return false
		}
	}
	return true
}

// seedTrace is screen 2 — ancestor-chain consistency: the transitions
// from the seed's root to node ix, or nil unless every link down the
// parent chain satisfies depth == parent.depth+1 and ends at a depth-0
// root. Decode checks indices, not graph shape; the walk takes exactly
// depth steps, so a parent cycle fails the depth check instead of looping.
func seedTrace(nodes []snapshot.Node, ix int32) []Transition {
	sn := &nodes[ix]
	if sn.Depth < 0 || int(sn.Depth) >= len(nodes) {
		return nil
	}
	trace := make([]Transition, sn.Depth)
	for i := len(trace) - 1; i >= 0; i-- {
		if sn.Depth != int32(i+1) || sn.Parent < 0 {
			return nil
		}
		trace[i] = viaOf(sn)
		sn = &nodes[sn.Parent]
	}
	if sn.Depth != 0 || sn.Parent >= 0 {
		return nil
	}
	return trace
}

// replayTrace re-derives a symbolic run for trace from root, this model's
// initial state, enforcing everything the search loop would have: the
// legal-step rule of checkStep and non-empty zones through fire (clock
// guards, invariants, delay closure). root is not modified. Returns the
// final node — whose traceOf is exactly trace — or nil if any step fails
// or the final state misses the goal's discrete conditions. It is never
// asked about a deadlock goal, whose deadlock-ness a replay does not
// check.
//
// Of the chain, only root and the returned node keep a full matrix: each
// step's zone goes back to the free-list once the next step has fired,
// since the path is read again only for its links. A failed replay
// recycles its whole chain, root excepted; nothing references it.
func (c *engineCtx) replayTrace(root *node, trace []Transition, goal Goal) *node {
	cur := root
	for _, t := range trace {
		var next *node
		if _, _, err := checkStep(c.en.sys, cur.locs, cur.env, t); err == nil {
			next = c.fire(cur, t)
		}
		if next == nil {
			c.dropChain(cur, root)
			return nil
		}
		if cur != root {
			c.releaseNode(cur)
		}
		cur = next
	}
	if !goal.Satisfied(cur.locs, cur.env) {
		c.dropChain(cur, root)
		return nil
	}
	return cur
}

// dropChain recycles a failed replay's nodes from n up to root, which it
// leaves alone.
func (c *engineCtx) dropChain(n, root *node) {
	for n != root {
		p := n.parent
		c.recycleNode(n)
		n = p
	}
}
