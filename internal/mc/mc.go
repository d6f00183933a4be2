// Package mc implements symbolic (zone-based) reachability analysis for
// networks of timed automata: the verification engine of the paper's
// methodology. It supports the UPPAAL options used in the paper's
// experiments — breadth-first and depth-first search order, bit-state
// hashing (Holzmann's supertrace), passed-list inclusion checking, compact
// canonical zone storage, and (in-)active clock reduction — plus diagnostic
// trace generation and concretization into timestamped schedules.
package mc

import (
	"fmt"
	"time"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// SearchOrder selects the exploration strategy.
type SearchOrder int

// Search orders. BFS and DFS keep a full passed list; BSH is depth-first
// search with bit-state hashing: the passed list is replaced by a hash
// table of 2 bits per state, making the search an under-approximation (any
// trace found is still a valid trace, as the paper notes).
const (
	BFS SearchOrder = iota
	DFS
	BSH
	// BestTime is a best-first order on the minimal possible global time
	// of a state, yielding time-optimal (or near-optimal) schedules. This
	// implements the paper's "more optimal programs" future-work item.
	BestTime
)

// String implements fmt.Stringer.
func (s SearchOrder) String() string {
	switch s {
	case BFS:
		return "BFS"
	case DFS:
		return "DFS"
	case BSH:
		return "BSH"
	case BestTime:
		return "BestTime"
	default:
		return fmt.Sprintf("SearchOrder(%d)", int(s))
	}
}

// Options configures the explorer. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	Search SearchOrder
	// HashBits sets the bit-state table size to 2^HashBits bits (BSH only).
	HashBits int
	// CoarseHash makes BSH hash only the discrete part of each state
	// (locations and integers), ignoring the zone: every discrete state is
	// explored at most once. A stronger under-approximation than plain
	// bit-state hashing — still sound for any trace found — that scales
	// schedule synthesis to instances where zone enumeration is hopeless.
	CoarseHash bool
	// Inclusion enables passed-list zone-inclusion subsumption (on by
	// default; with it off, only exact zone equality deduplicates).
	Inclusion bool
	// Compact stores passed zones in minimal-constraint form (UPPAAL's
	// "compact data structure"): each zone keeps only the difference
	// constraints that survive redundancy elimination instead of the full
	// O(n²) matrix. A state's full DBM exists only while the state is being
	// expanded — it is recycled the moment the state is parked on the
	// frontier and rebuilt, exactly, from the minimal form when the state is
	// popped. Subsumption decisions are bit-identical to the full-DBM store,
	// so verdicts, traces, and schedules do not change — only the memory
	// profile does (and the CPU profile: one reduction per stored state and
	// one re-closure per expanded state). Applies to the BFS, DFS, and
	// BestTime orders, sequential and parallel; BSH already stores only
	// hash bits and ignores this option.
	//
	// On by default (DefaultOptions) since the compact hot path stopped
	// round-tripping through full canonicalization: it cuts passed-store
	// bytes 1.2–20× on the tracked benchmarks at a wall-time cost that is
	// small on the zone-heavy plant instances (see BENCH_mc.json). Set it
	// to false to keep every stored zone as a full matrix.
	Compact bool
	// Extrapolate enables extrapolation (on by default; required for
	// termination on models with unbounded clocks). Diagonal-free models
	// use the coarser LU-bounds abstraction unless ClassicExtrapolation
	// forces plain max-bound extrapolation.
	Extrapolate          bool
	ClassicExtrapolation bool
	// ActiveClocks enables (in-)active clock reduction: clocks that cannot
	// be tested before their next reset are freed per location vector.
	ActiveClocks bool
	// Workers sets the number of parallel search workers for the BFS and
	// DFS orders (0 or 1 = sequential). Workers own per-worker deques and
	// steal work from each other, deduplicating through a lock-striped
	// sharded passed store; Found/Abort semantics are identical to the
	// sequential search, though which witness trace is found may differ.
	// BSH and BestTime always run sequentially (the bit table and the
	// global best-first order are inherently serial here).
	Workers int
	// MaxStates aborts the search after exploring this many states
	// (0 = unlimited).
	MaxStates int
	// MaxMemory aborts the search when the estimated live search memory
	// exceeds this many bytes (0 = unlimited). This models the paper's
	// 256 MB cutoff.
	MaxMemory int64
	// Timeout aborts the search after this wall-clock duration
	// (0 = unlimited). This models the paper's two-hour cutoff. It is
	// sugar over ExploreContext: a non-zero Timeout wraps the search
	// context in context.WithTimeout, and the deadline surfaces as
	// AbortTimeout (any other cancellation as AbortCanceled).
	Timeout time.Duration
	// Profile enables per-automaton transition counting in
	// Stats.ByAutomaton, useful for finding which component drives the
	// state-space size.
	Profile bool
	// Observer receives live search events: per-state visits and deadends
	// (superseding the former Inspect/InspectDeadend callbacks), periodic
	// progress Snapshots (see SnapshotEvery), and the final Result. An
	// observer that also implements Prioritizer supplies the
	// successor-ordering heuristic the former Priority field carried
	// (higher priority explored first; in the guiding spirit it cannot
	// change verification answers, only effort). Use FuncObserver for
	// one-off hooks and Observers to combine several.
	Observer Observer
	// SnapshotEvery enables periodic progress snapshots at this interval,
	// delivered to Observer.Snapshot from a sampling goroutine (0 = no
	// periodic snapshots). A final snapshot is always emitted when the
	// search ends, so even sub-interval runs produce one.
	SnapshotEvery time.Duration
	// TimeClock designates a never-reset clock measuring global time,
	// required by the BestTime search order (0 = none). The clock's
	// extrapolation bound is raised to TimeHorizon so that the time
	// ordering stays observable.
	TimeClock   int
	TimeHorizon int32
	// Checkpoint configures durable checkpoint/resume of the search (see
	// CheckpointOptions): periodic snapshots of the passed store and
	// frontier to a file, a final snapshot on any abort, and — with Resume
	// set — seeding the search from an existing snapshot so it continues
	// to the same verdict and bit-identical trace. The zero value disables
	// checkpointing. Like Observer/Profile/SnapshotEvery it is a
	// process-local concern and excluded from the canonical options JSON.
	Checkpoint CheckpointOptions
	// WarmStart seeds the search from a prior run's checkpoint for a
	// *different* (nearly identical) model: every seeded state is
	// re-validated against the current model and any witness whose path
	// crosses seeded states is replayed transition by transition before it
	// is reported (see WarmStartOptions). Like Checkpoint it is a
	// process-local concern and excluded from the canonical options JSON.
	WarmStart WarmStartOptions
}

// DefaultOptions returns the options matching UPPAAL's defaults in the
// paper's experiments: inclusion checking, extrapolation, and active-clock
// reduction enabled.
func DefaultOptions(search SearchOrder) Options {
	return Options{
		Search:       search,
		HashBits:     22,
		Inclusion:    true,
		Compact:      true,
		Extrapolate:  true,
		ActiveClocks: true,
	}
}

// AbortReason says why a search stopped without an answer.
type AbortReason string

// Abort reasons; empty means the search ran to completion.
const (
	AbortNone    AbortReason = ""
	AbortStates  AbortReason = "state limit"
	AbortMemory  AbortReason = "memory limit"
	AbortTimeout AbortReason = "timeout"
	// AbortCanceled reports that the context passed to ExploreContext was
	// canceled mid-search.
	AbortCanceled AbortReason = "canceled"
)

// Stats reports search effort, the data behind Table 1.
type Stats struct {
	StatesExplored int // states popped and expanded
	StatesStored   int // states currently in the passed list
	Transitions    int // successor states generated
	// PeakWaiting is the maximum waiting-list length: the true global
	// maximum also under parallel search, where it is tracked with one
	// shared atomic watermark across all workers' deques.
	PeakWaiting int
	// MaxDepth is the largest depth of any explored state.
	MaxDepth int
	Duration time.Duration // wall-clock search time
	MemBytes int64         // estimated peak live search memory
	// ByAutomaton counts generated transitions per initiating automaton
	// (populated only with Options.Profile).
	ByAutomaton []int
	// Deadends counts explored states with no successors.
	Deadends int
	// DiscreteStates counts distinct discrete states (location vectors +
	// integer stores) in the passed list; StatesStored / DiscreteStates is
	// the average zone-antichain width.
	DiscreteStates int
	// Evictions counts passed-store nodes evicted by a subsuming newcomer
	// (inclusion checking only).
	Evictions int64
	// Steals counts work-stealing events between parallel workers
	// (Workers > 1 only).
	Steals int64
	// StoreBytes is the passed store's accounted bytes at search end:
	// stored zones (full or compact) and node headers per entry, and per
	// discrete state its interned key, its location vector and integer
	// store (which its stored nodes share), and bucket overhead.
	// MemBytes additionally tracks the peak including frontier overhead.
	StoreBytes int64
	// AvgZoneConstraints is the mean number of stored minimal constraints
	// per passed zone (Options.Compact only; 0 otherwise). Comparing it
	// against dim² shows the compression the compact store achieves.
	AvgZoneConstraints float64
	// ShardOccupancy is the per-shard discrete-state count of the sharded
	// passed store (parallel search with Profile only).
	ShardOccupancy []int
	// WorkerExplored counts states expanded per worker (parallel search
	// with Profile only).
	WorkerExplored []int
	// CheckpointWrites counts checkpoint snapshots written during the run
	// (periodic and abort-time); CheckpointTime is the cumulative wall
	// time the search was paused writing them, and ResumeTime the time
	// spent loading and seeding from a checkpoint at startup
	// (Options.Checkpoint only; zero otherwise).
	CheckpointWrites int
	CheckpointTime   time.Duration
	ResumeTime       time.Duration
	// WarmSeeded counts prior-run states accepted into this search's passed
	// store by a warm start; WarmDropped counts the states the re-validation
	// rejected (structural mismatch against the new model, or a zone emptied
	// by the new invariants). Options.WarmStart only; zero otherwise.
	WarmSeeded  int
	WarmDropped int
}

// BytesPerStoredState is StoreBytes averaged over the stored states — the
// headline metric of the compact passed store.
func (s Stats) BytesPerStoredState() float64 {
	if s.StatesStored == 0 {
		return 0
	}
	return float64(s.StoreBytes) / float64(s.StatesStored)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("explored=%d stored=%d transitions=%d peakWaiting=%d time=%v mem=%.1fMB",
		s.StatesExplored, s.StatesStored, s.Transitions, s.PeakWaiting,
		s.Duration.Round(time.Millisecond), float64(s.MemBytes)/(1<<20))
}

// Result is the outcome of a reachability analysis.
type Result struct {
	Found bool
	// Trace is the symbolic diagnostic trace (sequence of transitions from
	// the initial state) when Found.
	Trace []Transition
	Stats Stats
	Abort AbortReason
	// Resumed reports that the search was seeded from a checkpoint
	// (Options.Checkpoint.Resume with an existing, valid snapshot) rather
	// than started from the initial state. Stats are cumulative across the
	// resumed segments.
	Resumed bool
	// WarmStarted reports that the search was seeded from another model's
	// checkpoint: Options.WarmStart named a loadable snapshot and at least
	// one of its states survived re-validation (Stats.WarmSeeded > 0). A
	// positive verdict is replay-validated and as trustworthy as a cold
	// one; a negative verdict is advisory — seeded states can subsume
	// states the new model would otherwise have explored — and callers
	// that must trust "not found" should rerun cold.
	WarmStarted bool
}

// Transition identifies one fired transition of the network: either an
// internal edge of one automaton or a binary synchronization between two.
type Transition struct {
	Chan   int // channel index, -1 for internal transitions
	A1, E1 int // automaton and edge index of the internal/sending edge
	A2, E2 int // receiving automaton and edge; -1 for internal transitions
}

// Internal reports whether the transition is unsynchronized.
func (t Transition) Internal() bool { return t.A2 < 0 }

// Format renders the transition using model names, e.g. "go: P.p0->p1 /
// Q.q0->q1".
func (t Transition) Format(sys *ta.System) string {
	a1 := sys.Automata[t.A1]
	e1 := a1.Edges[t.E1]
	part1 := fmt.Sprintf("%s.%s->%s", a1.Name, a1.Locations[e1.Src].Name, a1.Locations[e1.Dst].Name)
	if t.Internal() {
		return part1
	}
	a2 := sys.Automata[t.A2]
	e2 := a2.Edges[t.E2]
	return fmt.Sprintf("%s: %s / %s.%s->%s", sys.Channel(t.Chan).Name, part1,
		a2.Name, a2.Locations[e2.Src].Name, a2.Locations[e2.Dst].Name)
}

// Goal is a reachability query E<> (locations ∧ expression), optionally
// requiring the state to be a deadlock.
type Goal struct {
	Desc string
	// Expr is an integer-state predicate; nil means true.
	Expr expr.Expr
	// Locs require specific automata to be in specific locations.
	Locs []LocRequirement
	// Deadlock requires the state to have no discrete successor (no
	// transition enabled now or after any delay the invariants allow).
	Deadlock bool
}

// LocRequirement pins one automaton to one location.
type LocRequirement struct {
	Automaton int
	Location  int
}

// Satisfied evaluates the goal against a discrete state.
func (g Goal) Satisfied(locs []int32, env []int32) bool {
	for _, lr := range g.Locs {
		if locs[lr.Automaton] != int32(lr.Location) {
			return false
		}
	}
	return expr.Truthy(g.Expr, env)
}

// String implements fmt.Stringer.
func (g Goal) String() string {
	if g.Desc != "" {
		return g.Desc
	}
	return "E<> goal"
}
