// Package plant builds timed-automata models of the SIDMAR batch steel
// plant (the paper's case study): one batch automaton and one recipe
// automaton per ladle of steel, two crane automata, a casting-machine
// automaton, and a production-list automaton. The builder produces three
// preset variants of the same model — unguided, partially guided, and
// fully guided — by adding the paper's guide variables (`next`,
// `wantlift`, `creq`, `nextbatch`) and decorating transitions with extra
// guards, and additionally accepts any per-family subset of those guides
// (GuideSet) so a search layer can explore the space between the presets.
// The model checker needs no knowledge of guides: they are ordinary state.
package plant

import (
	"fmt"
	"strconv"

	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// GuideLevel selects how much guidance is compiled into the model,
// matching the paper's "No Guides" / "Some Guides" / "All Guides" columns.
type GuideLevel int

// Guide levels. SomeGuides is every guide except the ones using the
// nextbatch variable (exactly the paper's middle column).
const (
	NoGuides GuideLevel = iota
	SomeGuides
	AllGuides
)

// String implements fmt.Stringer.
func (g GuideLevel) String() string {
	switch g {
	case NoGuides:
		return "none"
	case SomeGuides:
		return "some"
	case AllGuides:
		return "all"
	default:
		return fmt.Sprintf("GuideLevel(%d)", int(g))
	}
}

// Quality is a steel quality; each quality is produced by a recipe (a
// sequence of machine treatments with a total deadline).
type Quality int

// Qualities. Type A machines are {m1, m4}, type B are {m2, m5}; m3 exists
// only on track 1.
const (
	Q1 Quality = 1 // type A then type B
	Q2 Quality = 2 // type A only
	Q3 Quality = 3 // type B only
	Q4 Quality = 4 // type A, type B, then m3
	Q5 Quality = 5 // type B then type A (forces upstream moves)
)

// Stage is one treatment step of a recipe.
type Stage struct {
	Machines []int // the machines able to perform the treatment
	Time     int32 // treatment duration
}

// Params are the plant's timing constants (the numbers remeasured when the
// LEGO plant's batteries wore out, per Section 6).
type Params struct {
	BMove    int32 // batch move between adjacent track slots
	CMove    int32 // crane move between adjacent overhead points
	CUp      int32 // crane pickup (the delay whose absence was bug #1)
	CDown    int32 // crane set-down
	TreatA   int32 // treatment time on type A machines (m1, m4)
	TreatB   int32 // treatment time on type B machines (m2, m5)
	TreatM3  int32 // treatment time on m3
	CastTime int32 // continuous casting time per ladle
	// TurnTime is the caster's ladle-swap tolerance: a cast completes
	// within [CastTime, CastTime+TurnTime] and the next ladle then starts
	// instantly ("casting must be continuous" up to the swap window).
	TurnTime int32
	Deadline int32 // max time from pour to cast start (the temperature bound)
}

// DefaultParams returns the timing constants used throughout the
// repository's experiments.
func DefaultParams() Params {
	return Params{
		BMove: 2, CMove: 1, CUp: 1, CDown: 1,
		TreatA: 4, TreatB: 6, TreatM3: 3,
		CastTime: 10, TurnTime: 2, Deadline: 90,
	}
}

// Validate rejects parameter sets no physical plant can have: every
// duration must be positive (a zero-time crane move or treatment would
// let the model teleport batches) except TurnTime, where zero just means
// the caster tolerates no ladle-swap slack. Callers overlaying measured
// disturbances onto DefaultParams (the serve API)
// validate before building, so a bad measurement fails the request
// instead of synthesizing a schedule for an impossible plant.
func (p Params) Validate() error {
	positive := []struct {
		name string
		v    int32
	}{
		{"BMove", p.BMove}, {"CMove", p.CMove}, {"CUp", p.CUp}, {"CDown", p.CDown},
		{"TreatA", p.TreatA}, {"TreatB", p.TreatB}, {"TreatM3", p.TreatM3},
		{"CastTime", p.CastTime}, {"Deadline", p.Deadline},
	}
	for _, f := range positive {
		if f.v <= 0 {
			return fmt.Errorf("plant: Params.%s must be > 0, got %d", f.name, f.v)
		}
	}
	if p.TurnTime < 0 {
		return fmt.Errorf("plant: Params.TurnTime must be >= 0, got %d", p.TurnTime)
	}
	return nil
}

// Stages expands a quality into its recipe under params.
func (p Params) Stages(q Quality) []Stage {
	a := Stage{Machines: []int{M1, M4}, Time: p.TreatA}
	b := Stage{Machines: []int{M2, M5}, Time: p.TreatB}
	m3 := Stage{Machines: []int{M3}, Time: p.TreatM3}
	switch q {
	case Q1:
		return []Stage{a, b}
	case Q2:
		return []Stage{a}
	case Q3:
		return []Stage{b}
	case Q4:
		return []Stage{a, b, m3}
	case Q5:
		return []Stage{b, a}
	default:
		panic(fmt.Sprintf("plant: unknown quality %d", q))
	}
}

// Config describes one plant scheduling problem instance.
type Config struct {
	// Qualities is the ordered production list; one batch per entry, cast
	// in list order.
	Qualities []Quality
	Guides    GuideLevel
	Params    Params
	// PourLookahead (AllGuides only) limits how many batches may be in
	// flight ahead of the caster (default 4). It is a guide parameter — a
	// strategy knob, not a plant property.
	PourLookahead int
	// GuideSet, when non-nil, selects guide families individually and
	// overrides Guides/PourLookahead. It is how the guide-search layer
	// (internal/guide) builds candidate models; the preset levels remain
	// the stable named points of the same space.
	GuideSet *GuideSet
}

// ActiveGuides resolves the guide families the config compiles in: the
// explicit GuideSet when given, otherwise the preset expansion of Guides
// (with PourLookahead as the AllGuides pour window).
func (c Config) ActiveGuides() GuideSet {
	if c.GuideSet != nil {
		return *c.GuideSet
	}
	return c.Guides.GuideSet(c.PourLookahead)
}

// TimeHorizon is the instance's default horizon for minimum-time (BestTime)
// search: the deadline per batch plus two deadlines of slack bounds any
// schedule worth having. Zero Params mean the defaults, as in Build.
func (c Config) TimeHorizon() int32 {
	params := c.Params
	if params == (Params{}) {
		params = DefaultParams()
	}
	return params.Deadline * int32(len(c.Qualities)+2)
}

// CycleQualities builds an n-entry production list cycling through the
// given qualities (default Q1, Q2, Q3 when none given).
func CycleQualities(n int, qs ...Quality) []Quality {
	if len(qs) == 0 {
		qs = []Quality{Q1, Q2, Q3}
	}
	out := make([]Quality, n)
	for i := range out {
		out[i] = qs[i%len(qs)]
	}
	return out
}

// edgeKey identifies an edge of the network for command lookup.
type edgeKey struct{ auto, edge int }

// Plant is a built plant model: the timed-automata network, the scheduling
// goal, and the metadata needed to project traces onto plant commands.
type Plant struct {
	Sys  *ta.System
	Goal mc.Goal
	Cfg  Config

	// GlobalClock is a never-reset clock usable as mc.Options.TimeClock
	// for minimum-time search.
	GlobalClock int

	// Automaton indices by role.
	BatchAuto  []int
	RecipeAuto []int
	CraneAuto  [2]int
	CasterAuto int
	ListAuto   int

	commands map[edgeKey]Command
	chanPrio map[int]int
}

// Command is a plant-level control command derivable from a model
// transition, e.g. {Unit: "Load1", Action: "Track1Right"}. Arg carries the
// machine-readable operand (source slot, overhead point, machine id, ...)
// that the simulator's local controllers need; it is not displayed.
type Command struct {
	Unit   string
	Action string
	Arg    int
}

// String renders the command in the paper's Table 2 style
// ("Load1.Track1Right").
func (c Command) String() string { return c.Unit + "." + c.Action }

// Priority is a depth-first search-order heuristic for this model (for
// mc.Options.Priority): explore deliveries and plant progress before idle
// crane shuffling, and complete a cast only after everything else has been
// tried — continuity dead-ends then appear as early as possible. Like any
// guide, it cannot change answers, only search effort.
func (p *Plant) Priority(t mc.Transition) int {
	if t.Chan >= 0 {
		if pr, ok := p.chanPrio[t.Chan]; ok {
			return pr
		}
		return 5
	}
	switch {
	case t.A1 == p.ListAuto:
		return 10 // the goal edge
	case t.A1 == p.CraneAuto[0] || t.A1 == p.CraneAuto[1]:
		return 1 // crane repositioning last-ish
	default:
		return 3 // batch track moves and other internal progress
	}
}

// Command returns the plant command attached to an edge, if any.
func (p *Plant) Command(auto, edge int) (Command, bool) {
	c, ok := p.commands[edgeKey{auto, edge}]
	return c, ok
}

// NumBatches returns the number of batches in the instance.
func (p *Plant) NumBatches() int { return len(p.Cfg.Qualities) }

// builder carries shared state while constructing the network.
type builder struct {
	p   *Plant
	sys *ta.System
	cfg Config
	n   int // batch count
	// g is the resolved guide family selection; guided mirrors
	// g.someLevel() (any Some-level family on → the shared guide
	// bookkeeping variables are compiled in).
	g      GuideSet
	guided bool

	batchClock  []int // per-batch movement clock
	treatClock  []int // per-batch recipe treatment clock
	totalClock  []int // per-batch recipe total-time clock
	craneClock  [2]int
	casterClock int

	// The model's variables and the named constants the trees use, as
	// declared by declareState. The guide variables are set only when
	// their families are compiled in.
	posi, posii, cpos, atm      array
	bufocc, holdocc, outocc     cell
	castnext, castsdone, stored cell
	next, wantlift, progress    array
	cdest                       [2]cell
	creqby, nextbatch           cell
	cast, store                 expr.Expr
	trackSum                    [NumTracks + 1]expr.Expr // by track
}

// Build constructs the plant model for cfg.
func Build(cfg Config) (*Plant, error) {
	if len(cfg.Qualities) == 0 {
		return nil, fmt.Errorf("plant: production list is empty")
	}
	for _, q := range cfg.Qualities {
		if q < Q1 || q > Q5 {
			return nil, fmt.Errorf("plant: unknown quality %d", q)
		}
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}

	g := cfg.ActiveGuides()
	b := &builder{
		cfg:    cfg,
		n:      len(cfg.Qualities),
		g:      g,
		guided: g.someLevel(),
	}
	label := cfg.Guides.String()
	if cfg.GuideSet != nil {
		label = g.String()
	}
	b.sys = ta.NewSystem("sidmar-" + strconv.Itoa(b.n) + "-" + label)
	b.p = &Plant{Sys: b.sys, Cfg: cfg, commands: make(map[edgeKey]Command)}

	b.declareState()
	b.declareChannels()
	// Automaton order matters for depth-first search: successors are
	// pushed in automaton order and popped in reverse, so the components
	// whose internal moves should be explored LAST (the cranes, whose
	// wandering dominates the state space) are built FIRST.
	b.buildCrane(0)
	b.buildCrane(1)
	b.buildCaster()
	b.buildList()
	for batch := 0; batch < b.n; batch++ {
		b.buildBatch(batch)
	}
	for batch := 0; batch < b.n; batch++ {
		b.buildRecipe(batch)
	}

	if err := b.sys.Freeze(); err != nil {
		return nil, fmt.Errorf("plant: model malformed: %w", err)
	}
	return b.p, nil
}

// MustBuild is Build that panics on error.
func MustBuild(cfg Config) *Plant {
	p, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// declareState declares clocks, variables, and named constants, and keeps
// each variable as the tree node the guards and updates use.
func (b *builder) declareState() {
	t := b.sys.Table
	array := func(name string, n int, init ...int32) array {
		base := t.DeclareArray(name, n, init...)
		a := make(array, n)
		for i := range a {
			a[i] = expr.Index{Base: base, Size: n, Idx: num(i), Name: name}
		}
		return a
	}
	scalar := func(name string) cell {
		return expr.Var{Off: t.DeclareVar(name, 0), Name: name}
	}

	b.p.GlobalClock = b.sys.AddClock("gt")
	b.batchClock = make([]int, b.n)
	b.treatClock = make([]int, b.n)
	b.totalClock = make([]int, b.n)
	for i := 0; i < b.n; i++ {
		is := strconv.Itoa(i)
		b.batchClock[i] = b.sys.AddClock("xb" + is)
		b.treatClock[i] = b.sys.AddClock("t" + is)
		b.totalClock[i] = b.sys.AddClock("tot" + is)
	}
	b.craneClock[0] = b.sys.AddClock("xc1")
	b.craneClock[1] = b.sys.AddClock("xc2")
	b.casterClock = b.sys.AddClock("cc")

	b.posi = array("posi", TrackLen)
	b.posii = array("posii", TrackLen)
	// Cranes start parked at the far ends of the overhead track.
	cposInit := make([]int32, NumPts)
	cposInit[PtEntry1] = 1
	cposInit[PtStore] = 1
	b.cpos = array("cpos", NumPts, cposInit...)
	b.bufocc = scalar("bufocc")
	b.holdocc = scalar("holdocc")
	b.outocc = scalar("outocc")
	b.atm = array("atm", b.n)
	b.castnext = scalar("castnext")
	b.castsdone = scalar("castsdone")
	b.stored = scalar("stored")

	if b.guided {
		b.next = array("next", b.n)
		b.wantlift = array("wantlift", NumPts)
		b.cdest[0] = scalar("cdest1")
		b.cdest[1] = scalar("cdest2")
		b.creqby = scalar("creqby")
	}
	if b.g.PourOrder {
		b.nextbatch = scalar("nextbatch")
	}
	if b.g.CastPace {
		// progress[b] flips to 1 once batch b, bound for the caster, has
		// reached a track exit; the cast-pacing guide keys on it.
		b.progress = array("progress", b.n)
	}

	t.DefineConst("m1", M1)
	t.DefineConst("m2", M2)
	t.DefineConst("m3", M3)
	t.DefineConst("m4", M4)
	t.DefineConst("m5", M5)
	t.DefineConst("cast", DestCast)
	t.DefineConst("store", DestStore)
	t.DefineConst("nbatch", int32(b.n))
	b.cast = expr.Const{Val: DestCast, Name: "cast"}
	b.store = expr.Const{Val: DestStore, Name: "store"}

	for tr := 1; tr <= NumTracks; tr++ {
		b.trackSum[tr] = trackSum(b.trackOcc(tr))
	}
}

// declareChannels declares all synchronization channels and records the
// search-priority class of each.
func (b *builder) declareChannels() {
	b.p.chanPrio = make(map[int]int)
	add := func(name string, prio int) {
		b.p.chanPrio[b.sys.AddChannel(name, false)] = prio
	}
	for i := 0; i < b.n; i++ {
		is := strconv.Itoa(i)
		add("goT1_"+is, 4)
		add("goT2_"+is, 4)
		add("mon_"+is, 5)
		add("moff_"+is, 5)
		add("atcast_"+is, 6)
	}
	add("caststart", 6)
	// Completing a cast is the one transition worth postponing: it is
	// always enabled once the cast period elapses, and firing it before
	// the next ladle's delivery ends in a continuity dead-end.
	add("castdone", -10)
	for c := 1; c <= 2; c++ {
		cs := strconv.Itoa(c)
		for _, p := range liftablePoints {
			add(liftChan(cs, p), 7)
		}
		for _, p := range droppablePoints {
			add(dropChan(cs, p), 7)
		}
		add("lifted"+cs, 7)
		add("dropped"+cs, 7)
	}
}

// cmd registers a plant command for an edge.
func (b *builder) cmd(auto, edge int, unit, action string, arg ...int) {
	c := Command{Unit: unit, Action: action}
	if len(arg) > 0 {
		c.Arg = arg[0]
	}
	b.p.commands[edgeKey{auto, edge}] = c
}

// liftChan and dropChan name crane cs's pickup and set-down channels at
// point p.
func liftChan(cs string, p int) string { return "lift" + cs + "_" + strconv.Itoa(p) }
func dropChan(cs string, p int) string { return "drop" + cs + "_" + strconv.Itoa(p) }

// trackSum is the guide expression summing a track's loads, arr[0]+...+arr[6]
// (the two sides of the paper's posi[0]+...+posi[6] <= posii[0]+...+posii[6]
// machine-choice heuristic).
func trackSum(arr array) expr.Expr {
	s := expr.Expr(arr[0])
	for i := 1; i < TrackLen; i++ {
		s = add(s, arr[i])
	}
	return s
}

// stageChoiceExpr builds the guided machine choice for a stage: the machine
// on the emptier track, with a -2 bias toward staying on the current track
// (mirroring the paper's second guide expression),
//
//	(posi[0]+...+posi[6]+(next[b]<=3 ? 0-2 : 0) <= posii[0]+...+posii[6]+(next[b]>=4 ? 0-2 : 0) ? mT1 : mT2)
//
// For single-machine stages the expression is the constant machine id.
func (b *builder) stageChoiceExpr(st Stage, batch int, bias bool) expr.Expr {
	if len(st.Machines) == 1 {
		return num(st.Machines[0])
	}
	mT1, mT2 := st.Machines[0], st.Machines[1]
	if MachineTrack(mT1) != 1 {
		mT1, mT2 = mT2, mT1
	}
	left, right := b.trackSum[1], b.trackSum[2]
	if bias {
		next := b.next[batch]
		minus2 := sub(num(0), num(2))
		left = add(left, cond(le(next, num(3)), minus2, num(0)))
		right = add(right, cond(ge(next, num(4)), minus2, num(0)))
	}
	return cond(le(left, right), num(mT1), num(mT2))
}

// Crane work regions (a guide). In guided models crane 1 serves the track
// side (transfers between tracks and staging of cast-bound ladles into the
// buffer) and crane 2 the caster side (buffer to holding place, ejected
// empties to storage); the regions meet only at the buffer, where the creq
// variable arbitrates. Unguided models let both cranes roam the whole
// overhead track.
var (
	craneLiftPts = [2][]int{
		{PtEntry1, PtExit1, PtEntry2, PtExit2},
		{PtBuffer, PtCastOut},
	}
	craneDropPts = [2][]int{
		{PtEntry1, PtExit1, PtEntry2, PtExit2, PtBuffer},
		{PtHold, PtStore},
	}
	craneSpan = [2][2]int{{PtEntry1, PtBuffer}, {PtBuffer, PtStore}}
)

// reserve sizes a new automaton's location and edge lists for exactly the
// counts its builder adds, so adding them never regrows either list.
func reserve(a *ta.Automaton, locs, edges int) {
	a.Locations = make([]ta.Location, 0, locs)
	a.Edges = make([]ta.Edge, 0, edges)
}

// liftPoints returns the points crane ci may pick up at.
func (b *builder) liftPoints(ci int) []int {
	if b.g.Regions {
		return craneLiftPts[ci]
	}
	return liftablePoints
}

// dropPoints returns the points crane ci may set down at.
func (b *builder) dropPoints(ci int) []int {
	if b.g.Regions {
		return craneDropPts[ci]
	}
	return droppablePoints
}

// craneRange returns the overhead stretch crane ci may move within.
func (b *builder) craneRange(ci int) (lo, hi int) {
	if b.g.Regions {
		return craneSpan[ci][0], craneSpan[ci][1]
	}
	return 0, NumPts - 1
}

// offTrackExpr is the guided condition "this batch's destination is not on
// track t" used to gate lifts, wantlift flags and route moves.
func (b *builder) offTrackExpr(batch, track int) expr.Expr {
	next := b.next[batch]
	if track == 1 {
		// Off track 1: m4, m5, cast, store — next[b] >= 4.
		return ge(next, num(4))
	}
	// Off track 2: m1..m3 or cast/store — next[b] <= 3 || next[b] >= 6.
	return or(le(next, num(3)), ge(next, num(6)))
}
