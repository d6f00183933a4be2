package fuzz

import (
	"fmt"
	"math/rand"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// ExploreFunc is the engine entry point the harness drives. Production use
// passes mc.Explore; the self-test injects a deliberately broken wrapper
// and asserts the harness catches and shrinks it.
type ExploreFunc func(sys *ta.System, goal mc.Goal, opts mc.Options) (mc.Result, error)

// Config is one named engine configuration of the cross-check matrix.
type Config struct {
	Name string
	Opts mc.Options
	// Exact configurations must agree with each other on the verdict;
	// non-exact ones (bit-state hashing) are under-approximations that may
	// miss goals but must never invent them.
	Exact bool
}

// Configs returns the cross-check matrix: a curated sweep of the exact
// engine configurations — search order × inclusion × compact vs full-DBM
// store × extrapolation flavor × active clocks × parallelism — plus the
// BestTime order (exact; timeClock names the generator's never-reset
// global clock) and the two bit-state under-approximations. Since the
// compact store became the engine default, the bare bfs/dfs configs
// exercise it and the -full variants pin the full-DBM store. A build with
// the dbmcheck tag cross-checks every partial close of the dbm package
// against a full Close in every configuration, panicking on divergence
// mid-campaign. maxStates bounds every search so a generator miss cannot
// hang a campaign.
func Configs(maxStates, timeClock int) []Config {
	mk := func(name string, exact bool, tweak func(*mc.Options)) Config {
		o := mc.DefaultOptions(mc.BFS)
		o.MaxStates = maxStates
		tweak(&o)
		return Config{Name: name, Opts: o, Exact: exact}
	}
	cfgs := []Config{
		mk("bfs", true, func(o *mc.Options) {}),
		mk("dfs", true, func(o *mc.Options) { o.Search = mc.DFS }),
		mk("bfs-full", true, func(o *mc.Options) { o.Compact = false }),
		mk("dfs-full", true, func(o *mc.Options) { o.Search = mc.DFS; o.Compact = false }),
		mk("bfs-noincl", true, func(o *mc.Options) { o.Inclusion = false }),
		mk("dfs-noincl", true, func(o *mc.Options) { o.Search = mc.DFS; o.Inclusion = false }),
		mk("bfs-classic", true, func(o *mc.Options) { o.ClassicExtrapolation = true }),
		mk("dfs-classic", true, func(o *mc.Options) { o.Search = mc.DFS; o.ClassicExtrapolation = true }),
		mk("bfs-noactive", true, func(o *mc.Options) { o.ActiveClocks = false }),
		mk("bfs-par4", true, func(o *mc.Options) { o.Workers = 4 }),
		mk("dfs-par4", true, func(o *mc.Options) { o.Search = mc.DFS; o.Workers = 4 }),
		mk("bfs-full-par4", true, func(o *mc.Options) { o.Compact = false; o.Workers = 4 }),
		mk("dfs-full-noincl", true, func(o *mc.Options) {
			o.Search = mc.DFS
			o.Compact = false
			o.Inclusion = false
		}),
		mk("bsh", false, func(o *mc.Options) { o.Search = mc.BSH }),
		mk("bsh-coarse", false, func(o *mc.Options) { o.Search = mc.BSH; o.CoarseHash = true }),
	}
	if timeClock > 0 {
		cfgs = append(cfgs, mk("besttime", true, func(o *mc.Options) {
			o.Search = mc.BestTime
			o.TimeClock = timeClock
			o.TimeHorizon = 256
		}))
	}
	return cfgs
}

// Problem is one contract violation found by the harness, carrying enough
// context to reproduce it: the case seed, the offending configuration, and
// the (possibly shrunk) spec.
type Problem struct {
	Kind   string // "divergence", "underapprox", "trace", "error", "abort"
	Case   int
	Config string
	Detail string
	Spec   *Spec
}

func (p *Problem) String() string {
	return fmt.Sprintf("case %d [%s] %s: %s", p.Case, p.Config, p.Kind, p.Detail)
}

// Harness cross-checks engine configurations against each other on
// generated or corpus specs.
type Harness struct {
	// Explore is the engine under test; nil means mc.Explore.
	Explore ExploreFunc
	// MaxStates bounds each individual search (default 100_000).
	MaxStates int
	// Gen bounds the generator; the zero value means DefaultGenConfig.
	Gen GenConfig
}

func (h *Harness) explore() ExploreFunc {
	if h.Explore != nil {
		return h.Explore
	}
	return mc.Explore
}

func (h *Harness) maxStates() int {
	if h.MaxStates > 0 {
		return h.MaxStates
	}
	return 100_000
}

func (h *Harness) gen() GenConfig {
	if h.Gen == (GenConfig{}) {
		return DefaultGenConfig()
	}
	return h.Gen
}

// CheckSpec runs the full configuration matrix on one spec and returns
// every contract violation.
func (h *Harness) CheckSpec(caseNo int, spec *Spec) []*Problem {
	sys, goal, err := spec.Build()
	if err != nil {
		return []*Problem{{Kind: "error", Case: caseNo, Detail: err.Error(), Spec: spec}}
	}
	problems := h.CheckModel(caseNo, sys, goal)
	for _, p := range problems {
		p.Spec = spec
	}
	return problems
}

// CheckModel runs the full configuration matrix on a built system — the
// entry point for corpus .gta files, which arrive as models rather than
// specs. A search abort (state limit) disables verdict comparison for the
// case — there is nothing sound to compare — and is reported as an
// "abort" problem only for exact configs, since inputs are expected to
// stay within budget. The BestTime configuration joins the matrix when
// the model has the generator's never-reset global clock "gt".
func (h *Harness) CheckModel(caseNo int, sys *ta.System, goal mc.Goal) []*Problem {
	timeClock := 0
	if i, ok := sys.ClockIndex("gt"); ok {
		timeClock = i
	}
	var problems []*Problem
	var exactVerdict *bool
	var exactName string
	stats := make(map[string]mc.Stats)
	for _, cfg := range Configs(h.maxStates(), timeClock) {
		res, err := h.explore()(sys, goal, cfg.Opts)
		if err != nil {
			problems = append(problems, &Problem{
				Kind: "error", Case: caseNo, Config: cfg.Name,
				Detail: err.Error(),
			})
			continue
		}
		if res.Abort != mc.AbortNone {
			if cfg.Exact {
				problems = append(problems, &Problem{
					Kind: "abort", Case: caseNo, Config: cfg.Name,
					Detail: fmt.Sprintf("aborted: %s after %d states", res.Abort, res.Stats.StatesExplored),
				})
			}
			continue
		}
		if cfg.Exact {
			stats[cfg.Name] = res.Stats
			if exactVerdict == nil {
				v := res.Found
				exactVerdict = &v
				exactName = cfg.Name
			} else if res.Found != *exactVerdict {
				problems = append(problems, &Problem{
					Kind: "divergence", Case: caseNo, Config: cfg.Name,
					Detail: fmt.Sprintf("found=%v but %s found=%v", res.Found, exactName, *exactVerdict),
				})
			}
		} else if res.Found && exactVerdict != nil && !*exactVerdict {
			problems = append(problems, &Problem{
				Kind: "underapprox", Case: caseNo, Config: cfg.Name,
				Detail: "under-approximation found a goal the exact search rejects",
			})
		}
		if res.Found {
			if err := mc.CheckTrace(sys, goal, res.Trace); err != nil {
				problems = append(problems, &Problem{
					Kind: "trace", Case: caseNo, Config: cfg.Name,
					Detail: err.Error(),
				})
			}
		}
	}
	// Effort parity: the compact store promises bit-identical subsumption
	// decisions, so every sequential inclusion-on BFS/DFS store variant must
	// explore, store, and evict exactly as the full-DBM baseline does —
	// verdict agreement alone would miss an eviction-gate bug whose wrong
	// decisions happen not to change the answer.
	for _, pair := range [][2]string{{"bfs-full", "bfs"}, {"dfs-full", "dfs"}} {
		ref, okRef := stats[pair[0]]
		got, okGot := stats[pair[1]]
		if !okRef || !okGot {
			continue // one of the two aborted or errored; reported above
		}
		if ref.StatesExplored != got.StatesExplored || ref.StatesStored != got.StatesStored ||
			ref.Evictions != got.Evictions {
			problems = append(problems, &Problem{
				Kind: "divergence", Case: caseNo, Config: pair[1],
				Detail: fmt.Sprintf("effort diverges from %s: explored %d/%d stored %d/%d evictions %d/%d",
					pair[0], got.StatesExplored, ref.StatesExplored,
					got.StatesStored, ref.StatesStored, got.Evictions, ref.Evictions),
			})
		}
	}
	return problems
}

// CheckTrace forwards to mc.CheckTrace, the witness-trace contract. It
// is kept only for the benchmark harness in perfbench/, which calls it by
// this name; everything else calls mc.CheckTrace.
func CheckTrace(sys *ta.System, goal mc.Goal, trace []mc.Transition) error {
	return mc.CheckTrace(sys, goal, trace)
}

// Run generates and checks `cases` specs from the given seed, shrinking
// every failing input to a minimal spec before reporting it. Campaigns are
// deterministic per seed.
func (h *Harness) Run(seed int64, cases int, progress func(done int)) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	var problems []*Problem
	for i := 0; i < cases; i++ {
		spec := Generate(rng, h.gen())
		ps := h.CheckSpec(i, spec)
		for _, p := range ps {
			p.Spec = h.ShrinkProblem(p)
		}
		problems = append(problems, ps...)
		if progress != nil {
			progress(i + 1)
		}
	}
	return problems
}

// ShrinkProblem minimizes the spec of a problem: a candidate reproduces
// when checking it yields a problem of the same kind (in any
// configuration — shrinking may legitimately move which config trips).
func (h *Harness) ShrinkProblem(p *Problem) *Spec {
	return Shrink(p.Spec, func(s *Spec) bool {
		for _, q := range h.CheckSpec(p.Case, s) {
			if q.Kind == p.Kind {
				return true
			}
		}
		return false
	})
}
