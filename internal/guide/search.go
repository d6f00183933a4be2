package guide

import (
	"context"
	"fmt"
	"math/rand"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// Search looks for a guide set making the plant instance tractable,
// starting from the unguided model. cfg supplies the instance (production
// list and timing parameters); its Guides/GuideSet fields are ignored —
// the search owns the guide selection. The algorithm is budgeted greedy
// forward selection with a full-portfolio anchor and a backward prune:
//
//  1. Probe the empty set (the baseline) and the full portfolio (the
//     anchor — the hand-written AllGuides equivalent).
//  2. Greedily add the single candidate that most improves the score
//     until no addition improves or the budget runs out. Non-finding
//     probes are ranked by plant-progress watermarks, so the climb has
//     gradient below tractability.
//  3. If the climb stalled without finding a schedule, jump to the full
//     set (when it found one).
//  4. Backward prune: drop any guide family whose removal does not
//     worsen the score, preferring minimal guide sets.
//
// Every schedule-finding probe is immediately cross-checked by replaying
// its trace on the unguided model through the witness-trace contract
// (mc.CheckTrace); a replay failure aborts the search with an error (it would
// mean the builder's restriction-only invariant is broken).
//
// Searches are deterministic: identical cfg, portfolio, budget, and seed
// yield identical probes, scores, and winner.
func Search(ctx context.Context, cfg plant.Config, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	portfolio := opt.Portfolio
	if portfolio == nil {
		portfolio = DefaultPortfolio()
	}
	if len(portfolio) == 0 {
		return nil, fmt.Errorf("guide: empty portfolio")
	}
	base := plant.Config{Qualities: cfg.Qualities, Params: cfg.Params}
	unguided, err := plant.Build(plant.Config{Qualities: base.Qualities, Params: base.Params, Guides: plant.NoGuides})
	if err != nil {
		return nil, err
	}
	oracle := mc.DefaultOptions(mc.DFS)
	if opt.Oracle != nil {
		oracle = *opt.Oracle
	}
	oracle.MaxStates = 0 // set per probe
	if err := oracle.Validate(); err != nil {
		return nil, err
	}

	s := &searcher{
		ctx:      ctx,
		base:     base,
		unguided: unguided,
		oracle:   oracle,
		budget:   opt.Budget.WithDefaults(),
		opt:      opt,
		memo:     make(map[plant.GuideSet]*Evaluation),
		res:      &Result{},
	}

	// Baseline and anchor.
	baseline, err := s.probe(plant.GuideSet{})
	if err != nil {
		return s.res, err
	}
	s.res.Baseline = *baseline
	full := plant.GuideSet{}
	for _, c := range portfolio {
		c.Apply(&full)
	}
	fullEval, err := s.probe(full)
	if err == errBudget {
		// Budget spent on the baseline alone: the best answer so far is
		// all there is.
		s.res.Full = Evaluation{Guides: full}
		s.res.Best = *baseline
		return s.res, nil
	}
	if err != nil {
		return s.res, err
	}
	s.res.Full = *fullEval

	// Greedy forward selection in seeded candidate order.
	order := append([]Candidate(nil), portfolio...)
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	current := *baseline
	if opt.WarmStart != nil && !opt.WarmStart.Empty() {
		// Warm start: probe the prior winner and climb from it when it
		// beats the baseline. Forward selection only ever adds families, so
		// without this seam every run re-pays the climb to a known-good set.
		ws, err := s.probe(*opt.WarmStart)
		if err != nil && err != errBudget {
			return s.res, err
		}
		if err == nil && better(ws, &current) {
			current = *ws
		}
	}
	for {
		var best *Evaluation
		for _, c := range order {
			trial := current.Guides
			c.Apply(&trial)
			if trial == current.Guides {
				continue
			}
			ev, err := s.probe(trial)
			if err == errBudget {
				best = nil
				break
			}
			if err != nil {
				return s.res, err
			}
			if best == nil || better(ev, best) {
				best = ev
			}
		}
		if best == nil || !better(best, &current) {
			break
		}
		current = *best
	}

	// Anchor jump: greedy stalled below tractability, but the full
	// portfolio (or some earlier probe) finds a schedule.
	if !current.Found && fullEval.Found {
		current = *fullEval
	}
	if better(fullEval, &current) {
		current = *fullEval
	}

	// Backward prune to a minimal set: drop families whose removal does
	// not worsen the score.
	if current.Found {
		for changed := true; changed; {
			changed = false
			for _, rm := range removals {
				trial := current.Guides
				rm(&trial)
				if trial == current.Guides {
					continue
				}
				ev, err := s.probe(trial)
				if err == errBudget {
					changed = false
					break
				}
				if err != nil {
					return s.res, err
				}
				if ev.Found && !better(&current, ev) {
					current = *ev
					changed = true
				}
			}
		}
	}

	s.res.Best = current
	return s.res, nil
}

// removals clears one guide family each, in a fixed order, for the prune
// pass.
var removals = []func(*plant.GuideSet){
	func(g *plant.GuideSet) { g.PourWindow = 0 },
	func(g *plant.GuideSet) { g.PourOrder = false },
	func(g *plant.GuideSet) { g.CastPace = false },
	func(g *plant.GuideSet) { g.Balance = false },
	func(g *plant.GuideSet) { g.BufferGate = false },
	func(g *plant.GuideSet) { g.Regions = false },
	func(g *plant.GuideSet) { g.Demand = false },
	func(g *plant.GuideSet) { g.Steer = false },
	func(g *plant.GuideSet) { g.Route = false },
}

// better reports whether a scores strictly better than b: finding beats
// not finding; among finders fewer explored states (the
// states-to-first-schedule metric), then fewer stored states; among
// non-finders a capped probe beats one that exhausted its restricted
// space (over-restriction), and higher plant-progress watermarks win.
func better(a, b *Evaluation) bool {
	if a.Found != b.Found {
		return a.Found
	}
	if a.Found {
		if a.Explored != b.Explored {
			return a.Explored < b.Explored
		}
		return a.Stored < b.Stored
	}
	// Neither found: an aborted (capped) probe still has reachable space
	// left; one that completed proved its guide set over-restricted.
	aCap, bCap := a.Abort != mc.AbortNone, b.Abort != mc.AbortNone
	if aCap != bCap {
		return aCap
	}
	if a.StoredWatermark != b.StoredWatermark {
		return a.StoredWatermark > b.StoredWatermark
	}
	return a.CastWatermark > b.CastWatermark
}

// errBudget is the internal out-of-probes sentinel; the search stops
// gracefully at the best answer so far.
var errBudget = fmt.Errorf("guide: probe budget exhausted")

// searcher carries the state of one Search run.
type searcher struct {
	ctx      context.Context
	base     plant.Config
	unguided *plant.Plant
	oracle   mc.Options
	budget   Budget
	opt      Options
	memo     map[plant.GuideSet]*Evaluation
	res      *Result
	found    bool // a schedule-finding probe has happened
}

// probe evaluates one guide set through the oracle, memoized by value.
func (s *searcher) probe(gs plant.GuideSet) (*Evaluation, error) {
	if ev, ok := s.memo[gs]; ok {
		return ev, nil
	}
	if s.res.Probes >= s.budget.MaxProbes {
		return nil, errBudget
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	s.res.Probes++

	gsCopy := gs
	p, err := plant.Build(plant.Config{
		Qualities: s.base.Qualities,
		Params:    s.base.Params,
		GuideSet:  &gsCopy,
	})
	if err != nil {
		return nil, err
	}

	opts := s.oracle
	opts.MaxStates = s.budget.ProbeStates
	opts.Workers = 1 // sequential: deterministic effort counters
	watermark := newWatermarkObserver(p)
	opts.Observer = mc.Observers(
		watermark,
		&mc.FuncObserver{Priority: p.Priority},
		s.opt.Observer,
	)
	r, err := mc.ExploreContext(s.ctx, p.Sys, p.Goal, opts)
	if err != nil {
		return nil, err
	}

	ev := &Evaluation{
		Guides:          gs,
		Found:           r.Found,
		Explored:        r.Stats.StatesExplored,
		Stored:          r.Stats.StatesStored,
		Abort:           r.Abort,
		StoredWatermark: watermark.maxStored,
		CastWatermark:   watermark.maxCasts,
		Duration:        r.Stats.Duration,
		Trace:           r.Trace,
	}
	if !s.found {
		s.res.TimeToFirst += r.Stats.Duration
		if r.Found {
			s.found = true
		}
	}
	if r.Found {
		// Soundness cross-check: the schedule must replay on the unguided
		// model through the full witness-trace contract.
		if err := s.replay(p, ev); err != nil {
			return nil, err
		}
	}
	s.memo[gs] = ev
	s.res.Evaluations = append(s.res.Evaluations, *ev)
	s.emit(Progress{
		Probe:    s.res.Probes,
		Total:    s.budget.MaxProbes,
		Phase:    "probe",
		Guides:   gs.String(),
		Found:    ev.Found,
		Explored: ev.Explored,
		Stored:   ev.Stored,
	})
	return ev, nil
}

// replay runs the soundness cross-check for a schedule-finding probe.
func (s *searcher) replay(p *plant.Plant, ev *Evaluation) error {
	mapped, err := plant.MapTrace(p.Sys, s.unguided.Sys, ev.Trace)
	if err != nil {
		return fmt.Errorf("guide: mapping %s trace onto unguided model: %w", ev.Guides, err)
	}
	if err := mc.CheckTrace(s.unguided.Sys, s.unguided.Goal, mapped); err != nil {
		return fmt.Errorf("guide: soundness violation — %s schedule does not replay unguided: %w", ev.Guides, err)
	}
	ev.Replayed = true
	s.emit(Progress{
		Probe:  s.res.Probes,
		Total:  s.budget.MaxProbes,
		Phase:  "replay",
		Guides: ev.Guides.String(),
		Found:  true,
	})
	return nil
}

func (s *searcher) emit(ev Progress) {
	if s.opt.Progress == nil {
		return
	}
	if best := s.bestSoFar(); best != nil {
		ev.Best = best.Guides.String()
	}
	s.opt.Progress(ev)
}

// bestSoFar scans the evaluations for the current leader (small lists;
// called only on the progress path).
func (s *searcher) bestSoFar() *Evaluation {
	var best *Evaluation
	for i := range s.res.Evaluations {
		ev := &s.res.Evaluations[i]
		if best == nil || better(ev, best) {
			best = ev
		}
	}
	return best
}

// watermarkObserver tracks the plant-progress watermarks (max values of
// the `stored` and `castsdone` counters over all visited states), the
// gradient signal for guide sets that don't reach a schedule within the
// probe cap.
type watermarkObserver struct {
	mc.FuncObserver
	storedOff, castsOff int
	maxStored, maxCasts int32
}

func newWatermarkObserver(p *plant.Plant) *watermarkObserver {
	w := &watermarkObserver{storedOff: -1, castsOff: -1}
	if v, ok := p.Sys.Table.LookupVar("stored"); ok {
		w.storedOff = v.Off
	}
	if v, ok := p.Sys.Table.LookupVar("castsdone"); ok {
		w.castsOff = v.Off
	}
	w.OnVisit = func(v mc.StateVisit) {
		if w.storedOff >= 0 && v.Env[w.storedOff] > w.maxStored {
			w.maxStored = v.Env[w.storedOff]
		}
		if w.castsOff >= 0 && v.Env[w.castsOff] > w.maxCasts {
			w.maxCasts = v.Env[w.castsOff]
		}
	}
	return w
}
