package mc

import "fmt"

// normalize validates the options and canonicalizes the don't-care
// degrees of freedom, returning the options the search loops actually run
// with. It is the single error path for nonsensical configurations —
// negative worker counts, negative limits, a BestTime order without its
// time clock — which previously slipped through to silent misbehavior deep
// in the engine. ExploreContext calls it on entry; Validate exposes the
// same checks to layers (flag parsing, the serve admission handler) that
// want to reject bad options before committing resources to a job.
func (o Options) normalize() (Options, error) {
	if o.Workers < 0 {
		return o, fmt.Errorf("mc: Options.Workers must be >= 0, got %d", o.Workers)
	}
	if o.MaxStates < 0 {
		return o, fmt.Errorf("mc: Options.MaxStates must be >= 0, got %d", o.MaxStates)
	}
	if o.MaxMemory < 0 {
		return o, fmt.Errorf("mc: Options.MaxMemory must be >= 0, got %d", o.MaxMemory)
	}
	if o.Timeout < 0 {
		return o, fmt.Errorf("mc: Options.Timeout must be >= 0, got %v", o.Timeout)
	}
	if o.SnapshotEvery < 0 {
		return o, fmt.Errorf("mc: Options.SnapshotEvery must be >= 0, got %v", o.SnapshotEvery)
	}
	if o.TimeClock < 0 {
		return o, fmt.Errorf("mc: Options.TimeClock must be >= 0, got %d", o.TimeClock)
	}
	switch o.Search {
	case BFS, DFS, BestTime, BSH:
	default:
		return o, fmt.Errorf("mc: unknown search order %v", o.Search)
	}
	if o.Search == BSH && (o.HashBits < 8 || o.HashBits > 34) {
		return o, fmt.Errorf("mc: HashBits %d out of range [8,34]", o.HashBits)
	}
	if o.Search == BestTime && o.TimeClock <= 0 {
		return o, fmt.Errorf("mc: BestTime search requires Options.TimeClock")
	}
	if o.Checkpoint.Interval < 0 {
		return o, fmt.Errorf("mc: Options.Checkpoint.Interval must be >= 0, got %v", o.Checkpoint.Interval)
	}
	if o.Checkpoint.Path == "" && (o.Checkpoint.Interval > 0 || o.Checkpoint.Resume) {
		return o, fmt.Errorf("mc: Options.Checkpoint.Interval/Resume require Checkpoint.Path")
	}
	if o.Checkpoint.Path != "" && o.Search == BSH {
		return o, fmt.Errorf("mc: checkpointing is not supported for the BSH order (the bit table stores only hashes)")
	}
	if o.WarmStart.Path != "" && o.Search == BSH {
		return o, fmt.Errorf("mc: warm start is not supported for the BSH order (the bit table stores only hashes)")
	}
	// Canonical worker count: 0 and 1 both mean sequential, and the BSH
	// and BestTime orders are inherently sequential regardless of Workers
	// (the bit table and the global best-first order serialize them).
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Search == BSH || o.Search == BestTime {
		o.Workers = 1
	}
	return o, nil
}

// Validate reports whether the options describe a runnable search,
// returning the same error ExploreContext would. It lets admission layers
// fail fast — a 400 instead of a worker picking up a doomed job.
func (o Options) Validate() error {
	_, err := o.normalize()
	return err
}
