package mc

import (
	"context"
	"testing"

	"guidedta/internal/ta"
)

// ExploreInflates is Explore that also returns how many compact-parked
// zones the search inflated back into full matrices for expansion, summed
// over its workers.
func ExploreInflates(sys *ta.System, goal Goal, opts Options) (Result, int, error) {
	opts, err := opts.normalize()
	if err != nil {
		return Result{}, 0, err
	}
	en, err := newEngine(context.Background(), sys, opts)
	if err != nil {
		return Result{}, 0, err
	}
	d := en.newLoop(goal)
	res, err := en.explore(d)
	var k counters
	switch d := d.(type) {
	case *seqSearch:
		k = d.w0.counters
	case *parSearch:
		k = d.fold()
	}
	return res, k.inflates, err
}

// WarmReplayHeld runs a warm start's replay of opts.WarmStart on sys and
// returns, root first, whether each node of the replayed witness path
// holds a full zone matrix; nil when no seed candidate replays.
func WarmReplayHeld(sys *ta.System, goal Goal, opts Options) ([]bool, error) {
	c, root, err := replayCtx(sys, opts)
	if err != nil {
		return nil, err
	}
	found, _ := c.warmReplay(root, goal)
	if found == nil {
		return nil, nil
	}
	held := make([]bool, found.depth+1)
	for n := found; n != nil; n = n.parent {
		held[n.depth] = n.zone != nil
	}
	return held, nil
}

// ReplayAllocs replays trace on sys from its initial state once, and
// returns whether it reached goal and the heap allocations of each
// further replay of it on the same worker context.
func ReplayAllocs(sys *ta.System, goal Goal, opts Options, trace []Transition) (bool, float64, error) {
	c, root, err := replayCtx(sys, opts)
	if err != nil {
		return false, 0, err
	}
	ok := c.replayTrace(root, trace, goal) != nil
	allocs := testing.AllocsPerRun(5, func() { c.replayTrace(root, trace, goal) })
	return ok, allocs, nil
}

// replayCtx returns a fresh worker context of an engine for sys and the
// initial node a replay starts from.
func replayCtx(sys *ta.System, opts Options) (*engineCtx, *node, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, nil, err
	}
	en, err := newEngine(context.Background(), sys, opts)
	if err != nil {
		return nil, nil, err
	}
	c := en.newCtx()
	root, err := c.initial()
	return c, root, err
}
