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
// A warm start loads the seed once and replays its goal states, in its
// store order, as witness candidates: up to warmReplayCap of them that
// pass the two structural screens below are replayed transition by
// transition from this model's initial state (Stats.WarmReplays). The
// first that replays is the answer. The run's store and frontier then
// hold just the replayed path, none of it expanded, so a kept-final
// snapshot of such a run (CheckpointOptions.KeepFinal) holds at most the
// trace length plus one states, all of this model.
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
	// Path is the seed checkpoint, typically another model's completed
	// search kept with CheckpointOptions.KeepFinal.
	Path string
}

func (w WarmStartOptions) enabled() bool { return w.Path != "" }

// warmReplayCap bounds how many of the seed's goal candidates a warm start
// replays before it searches cold: each replay costs one trace-length walk
// of fire(), and a seed store can hold many goal states that all fail the
// same way on the new model.
const warmReplayCap = 8

// warmSeed is a loaded seed checkpoint with its search tree rebuilt and
// the two structural screens a goal candidate must pass before replay.
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
// depth down the parent chain, so a goal candidate is only replayable if
// every ancestor link satisfies depth == parent.depth+1 back to a depth-0
// root (and the chain is acyclic — Decode checks indices, not graph
// shape).
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

// replay walks the seed's store order and replays, from root (this run's
// initial node, left untouched), up to warmReplayCap screened goal
// candidates. It returns the first replayed witness node, or nil, and the
// number of candidates it replayed.
func (ws *warmSeed) replay(c *engineCtx, root *node, goal Goal) (found *node, replays int) {
	for _, ix := range ws.cp.Store {
		if replays == warmReplayCap {
			break
		}
		sn := &ws.cp.Nodes[ix]
		if !ws.shapeOK[ix] || !goal.Satisfied(sn.Locs, sn.Env) || !ws.chainOK(ix) {
			continue
		}
		replays++
		if found := c.replayTrace(root, traceOf(ws.nodes[ix]), goal); found != nil {
			return found, replays
		}
	}
	return nil, replays
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
// or the final state misses the goal's discrete conditions. It is never
// asked about a deadlock goal, whose deadlock-ness a replay does not
// check.
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
	return cur
}
