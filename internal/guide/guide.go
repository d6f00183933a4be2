// Package guide searches for guide sets automatically — the paper's
// central contribution, guides that prune the state space until synthesis
// becomes tractable, turned from a hand-authoring task into an
// optimization pass (the DCSynth framing: guides as soft requirements
// scored by search effort).
//
// A search takes a plant instance, a portfolio of parameterized candidate
// guides (the per-family decomposition of the paper's three hand-written
// SIDMAR guides: ordering constraints, resource-reservation guards, and
// time-window bounds), and a probe budget. Candidate guide sets are
// scored by running mc.ExploreContext as the oracle on the guided model
// with a state cap: a set that finds a schedule is scored by
// states-explored-to-first-schedule (then stored states); a set that
// doesn't is scored by how far the plant progressed before the cap (its
// cast/storage watermark), so the greedy climb has gradient even where
// the unguided model is hopeless. Soundness is by construction — every
// guide family only restricts behaviour, so any schedule found under any
// guide set is a schedule of the unguided model — and is additionally
// spot-checked: every found schedule is re-indexed onto the unguided
// model (plant.MapTrace) and replayed through the full witness-trace
// contract (mc.CheckTrace).
package guide

import (
	"fmt"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// Candidate is one selectable guide of the portfolio: a named toggle (or
// parameter choice) on a plant.GuideSet. Candidates sharing a Group are
// mutually exclusive parameter values — applying one supersedes the
// group's previous choice (e.g. the pour-window widths).
type Candidate struct {
	Name  string
	Group string
	Apply func(*plant.GuideSet)
}

// DefaultPortfolio returns the candidate guides generalizing the paper's
// hand-written SIDMAR guides: the six Some-level families (ordering,
// steering, demand-driven cranes, work regions, the buffer gate, load
// balancing), the two All-level families (cast pacing, pour ordering),
// and a sweep of pour-window widths (the time-window-bound parameter).
func DefaultPortfolio() []Candidate {
	bool1 := func(name string, set func(*plant.GuideSet)) Candidate {
		return Candidate{Name: name, Group: name, Apply: set}
	}
	cands := []Candidate{
		bool1("route", func(g *plant.GuideSet) { g.Route = true }),
		bool1("steer", func(g *plant.GuideSet) { g.Steer = true }),
		bool1("demand", func(g *plant.GuideSet) { g.Demand = true }),
		bool1("regions", func(g *plant.GuideSet) { g.Regions = true }),
		bool1("buffergate", func(g *plant.GuideSet) { g.BufferGate = true }),
		bool1("balance", func(g *plant.GuideSet) { g.Balance = true }),
		bool1("castpace", func(g *plant.GuideSet) { g.CastPace = true }),
		bool1("pourorder", func(g *plant.GuideSet) { g.PourOrder = true }),
	}
	for _, w := range []int{2, 4, 8} {
		w := w
		cands = append(cands, Candidate{
			Name:  fmt.Sprintf("window=%d", w),
			Group: "window",
			Apply: func(g *plant.GuideSet) { g.PourWindow = w },
		})
	}
	return cands
}

// Budget bounds a search: ProbeStates caps each oracle exploration
// (mc.Options.MaxStates per probe; default 50000) and MaxProbes caps the
// number of oracle invocations (default 64). Distinct guide sets are
// evaluated at most once — repeats hit a memo, not the budget.
type Budget struct {
	ProbeStates int
	MaxProbes   int
}

// WithDefaults fills zero fields with the documented defaults. Search
// applies it internally; callers that key or log on the effective budget
// (e.g. the serve cache) apply it themselves.
func (b Budget) WithDefaults() Budget {
	if b.ProbeStates <= 0 {
		b.ProbeStates = 50000
	}
	if b.MaxProbes <= 0 {
		b.MaxProbes = 64
	}
	return b
}

// Options configures a Search beyond the plant instance and budget.
type Options struct {
	// Portfolio is the candidate list (nil = DefaultPortfolio).
	Portfolio []Candidate
	// Budget bounds the oracle probes (zero fields take defaults).
	Budget Budget
	// Seed drives the candidate visiting order. Searches are fully
	// deterministic per seed: the oracle runs sequentially and the plant's
	// own priority heuristic fixes the exploration order.
	Seed int64
	// Oracle is the base engine configuration each probe runs with
	// (default mc.DefaultOptions(mc.DFS)). MaxStates and Workers are
	// overridden per probe (the budget cap; sequential, for determinism).
	Oracle *mc.Options
	// Progress, when non-nil, receives one event per oracle probe and per
	// soundness replay — the hook the CLI progress line and the serve SSE
	// stream sit on.
	Progress func(Progress)
	// Observer, when non-nil, additionally receives the oracle's periodic
	// Snapshots of every probe (composed with the search's own observer).
	Observer *mc.FuncObserver
	// WarmStart, when non-nil, seeds the greedy climb with a prior
	// winner's guide set (e.g. the best set a previous discovery run or a
	// smaller instance produced): it is probed right after the baseline
	// and anchor, and the climb continues from it when it scores better
	// than the empty set. The search still explores additions and prunes,
	// so a stale warm start costs one probe, never the answer.
	WarmStart *plant.GuideSet
}

// Progress is one search progress event.
type Progress struct {
	// Probe counts oracle invocations so far; Total is the probe budget.
	Probe, Total int
	// Phase is the search stage: "probe" (baseline/full/greedy/prune
	// evaluations) or "replay" (the soundness cross-check).
	Phase string
	// Guides labels the evaluated guide set.
	Guides string
	// Found, Explored, and Stored summarize the probe's oracle run.
	Found            bool
	Explored, Stored int
	// Best labels the best-scoring guide set so far ("" until one is
	// known).
	Best string
}

// Evaluation is the scored outcome of one oracle probe.
type Evaluation struct {
	Guides plant.GuideSet
	// Found reports whether the probe reached a schedule within the cap.
	Found bool
	// Explored and Stored are the oracle's effort counters; for a Found
	// probe Explored is exactly the states-to-first-schedule.
	Explored, Stored int
	// Abort is the oracle's abort reason for non-Found probes ("" when the
	// probe exhausted the restricted state space without finding).
	Abort mc.AbortReason
	// StoredWatermark and CastWatermark are the plant-progress watermarks
	// (max batches stored / casts completed over all visited states) that
	// rank non-Found probes.
	StoredWatermark, CastWatermark int32
	// Duration is the probe's wall-clock oracle time.
	Duration time.Duration
	// Trace is the witness trace of a Found probe (indices into the
	// probe's own model build; use plant.MapTrace to re-index).
	Trace []mc.Transition
	// Replayed reports that the trace passed the unguided replay
	// cross-check.
	Replayed bool
}

// Result is the outcome of a Search.
type Result struct {
	// Best is the winning evaluation; Best.Found reports whether any
	// probed guide set reached a schedule within the budget.
	Best Evaluation
	// Baseline is the empty-set (unguided) probe and Full the probe of
	// the complete portfolio, both always evaluated first — Full anchors
	// the search when the greedy climb stalls below tractability.
	Baseline, Full Evaluation
	// Evaluations lists every distinct probe in evaluation order.
	Evaluations []Evaluation
	// Probes is the number of oracle invocations spent.
	Probes int
	// TimeToFirst is the cumulative oracle time until the first
	// schedule-finding probe (the time-to-first-schedule metric; 0 if none
	// found).
	TimeToFirst time.Duration
}
