package mc

import "time"

// StateVisit is the per-state payload delivered to FuncObserver.OnVisit:
// the discrete part of an explored state and where in the search it sits.
// The slices are the engine's own buffers and must not be retained or
// mutated past the callback.
type StateVisit struct {
	Locs  []int32
	Env   []int32
	Depth int
	// Worker is the parallel worker that expanded the state (0 for the
	// sequential search).
	Worker int
}

// Snapshot is a point-in-time progress sample of a running search,
// delivered periodically (every Options.SnapshotEvery) to
// FuncObserver.OnSnapshot, plus once more when the search ends. Snapshots
// are taken from lock-light atomic counters published by the search
// loops, so observing a long run costs the search essentially nothing.
type Snapshot struct {
	Elapsed        time.Duration
	StatesExplored int
	Transitions    int
	// Waiting is the current frontier length; PeakWaiting its maximum so
	// far (the true global maximum, also under parallel search).
	Waiting     int
	PeakWaiting int
	// StatesStored and StoreBytes describe the passed store at sample time.
	StatesStored int
	StoreBytes   int64
	// MemBytes is the estimated live search memory (store + frontier).
	MemBytes int64
	MaxDepth int
	Deadends int
	// Steals counts work-stealing events so far (parallel search only).
	Steals int64
	// StatesPerSec is the exploration rate since the previous snapshot
	// (over the whole run for the final snapshot).
	StatesPerSec float64
	// WorkerExplored is the per-worker explored count (parallel search
	// only; nil for sequential runs).
	WorkerExplored []int
	// Final marks the closing snapshot emitted when the search ends.
	Final bool
}

// FuncObserver receives live events from a running search and may carry
// the successor-ordering heuristic; it is the seam the CLI progress line,
// run reports and the service's progress stream sit on. Nil fields are
// skipped, and skipped cheaply: the engine reads each callback once, so
// an event nobody listens to costs one branch and, in the parallel
// search, no lock. OnVisit is called from the search loop (serialized,
// also under parallel search); OnSnapshot from a sampling goroutine;
// OnDone exactly once, after the search has fully stopped, with the
// final Result. The zero value is a valid, fully inert observer, so
// one-liners like
//
//	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
//
// install the plant's heuristic alone.
type FuncObserver struct {
	OnVisit    func(v StateVisit)
	OnSnapshot func(s Snapshot)
	OnDone     func(r Result)
	// Priority is the successor-ordering heuristic: higher priority is
	// explored first. Like the paper's guides it orders the search and
	// never removes a move, so it cannot change verification answers,
	// only effort.
	Priority func(t Transition) int
}

// Observers composes several observers into one. Nil members are
// dropped; a single surviving member is returned unwrapped, and none
// gives nil. Otherwise the result is a new FuncObserver whose callbacks
// fan out to the members' in member order — set only where some member
// sets one, read at composition time — and whose Priority is the first
// non-nil member priority, so a guiding observer composes with watching
// ones. The members are not modified.
func Observers(os ...*FuncObserver) *FuncObserver {
	var kept []*FuncObserver
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	var visits []func(StateVisit)
	var snaps []func(Snapshot)
	var dones []func(Result)
	f := &FuncObserver{}
	for _, o := range kept {
		if o.OnVisit != nil {
			visits = append(visits, o.OnVisit)
		}
		if o.OnSnapshot != nil {
			snaps = append(snaps, o.OnSnapshot)
		}
		if o.OnDone != nil {
			dones = append(dones, o.OnDone)
		}
		if f.Priority == nil {
			f.Priority = o.Priority
		}
	}
	f.OnVisit, f.OnSnapshot, f.OnDone = fanOut(visits), fanOut(snaps), fanOut(dones)
	return f
}

// fanOut calls every fn in order; nil for none, the one fn unwrapped.
func fanOut[T any](fns []func(T)) func(T) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(x T) {
		for _, fn := range fns {
			fn(x)
		}
	}
}
