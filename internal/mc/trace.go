package mc

import (
	"fmt"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// ConcreteStep is one transition of a concretized trace with an absolute
// firing time. Times are stored in half time units (all constants are
// scaled by 2 internally so that strict bounds have exact integer
// solutions); use TimeString or the Half constant to convert.
type ConcreteStep struct {
	Time  int64 // absolute time in half units
	Trans Transition
}

// Half is the number of internal time units per model time unit.
const Half = 2

// TimeString renders a half-unit timestamp as "12" or "12.5".
func TimeString(t int64) string {
	if t%Half == 0 {
		return fmt.Sprintf("%d", t/Half)
	}
	return fmt.Sprintf("%d.5", t/Half)
}

// timeStringAt renders a timestamp in 1/denom time units (as produced by
// schedule): whole multiples as "12", half units as "12.5", and finer
// grid points as reduced fractions like "7/4".
func timeStringAt(t, denom int64) string {
	if denom > 0 && t%denom == 0 {
		return fmt.Sprintf("%d", t/denom)
	}
	if denom == Half {
		return TimeString(t)
	}
	g := gcd(t, denom)
	if g > 1 {
		t, denom = t/g, denom/g
	}
	return fmt.Sprintf("%d/%d", t, denom)
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// diffConstraint is T[u] - T[v] <= w (or < w when strict) over transition
// firing times in half units, with T[0] = 0 the trace start.
type diffConstraint struct {
	u, v   int
	w      int64
	strict bool
}

// Concretize assigns an absolute firing time to every transition of a
// symbolic trace, choosing the earliest consistent schedule on the
// half-unit grid. It replays the discrete path, collects the difference
// constraints induced by guards and invariants, solves them greedily, and
// falls back to an exact Bellman–Ford solution if the greedy choice is
// inconsistent (possible when delaying a reset would have relaxed a later
// upper bound).
//
// Chains of strict constraints can be satisfiable over dense time yet
// admit no half-unit schedule (each strict bound needs real slack, and the
// slacks accumulate); Concretize reports that case as an error, while
// CheckTrace accepts such traces on an adaptively finer grid. Plant
// models use weak bounds only, so the synthesis pipeline always stays on
// the half-unit grid.
func Concretize(sys *ta.System, trace []Transition) ([]ConcreteStep, error) {
	cons, _, _, err := replay(sys, trace, false)
	if err != nil {
		return nil, err
	}
	steps, denom, err := schedule(trace, cons)
	if err != nil {
		return nil, err
	}
	if denom != Half {
		return nil, fmt.Errorf("mc: trace is schedulable only at 1/%d time granularity (strict-constraint chain)", denom)
	}
	return steps, nil
}

// schedule solves a replay's difference constraints for the earliest
// firing times of trace: on the half-unit grid when one exists and
// otherwise on the grid 1/denom with denom = 2*(len(trace)+2), which is
// fine enough for every dense-time-feasible trace. Step times are in
// 1/denom time units. An error means the trace is genuinely inconsistent
// over dense time.
func schedule(trace []Transition, cons []diffConstraint) ([]ConcreteStep, int64, error) {
	times, scale, err := solveDifferenceConstraints(len(trace), cons)
	if err != nil {
		return nil, 0, err
	}
	steps := make([]ConcreteStep, len(trace))
	for i, t := range trace {
		steps[i] = ConcreteStep{Time: times[i+1], Trans: t}
	}
	return steps, scale * Half, nil
}

// checkTimes checks concrete firing times in 1/denom time units (denom a
// positive multiple of Half) against a replay's difference constraints
// (guards, invariants, monotonicity, urgency): any schedule that passes is
// genuinely executable.
func checkTimes(cons []diffConstraint, steps []ConcreteStep, denom int64) error {
	if denom <= 0 || denom%Half != 0 {
		return fmt.Errorf("mc: time denominator %d is not a positive multiple of %d", denom, Half)
	}
	scale := denom / Half
	times := make([]int64, len(steps)+1)
	for i, s := range steps {
		times[i+1] = s.Time
	}
	for _, c := range cons {
		if times[c.u]-times[c.v] > encodeBound(c, scale) {
			return fmt.Errorf("mc: timing constraint T%d - T%d %s %s violated (%s - %s)",
				c.u, c.v, map[bool]string{true: "<", false: "<="}[c.strict], TimeString(c.w),
				timeStringAt(times[c.u], denom), timeStringAt(times[c.v], denom))
		}
	}
	return nil
}

// CheckTrace is the witness-trace contract: the trace must replay from
// the initial state under the legal-step rule (checkStep), end in a state
// satisfying the goal, concretize to absolute firing times, and pass the
// timing validator. Urgency is part of the timing constraints: replay
// pins a step to its predecessor's time wherever noDelayAt forbids delay
// in the step's source state, so a schedule that delays there fails
// validation. It replays the trace once and shares no code with the
// search's successor enumeration, so it checks the engine's traces
// independently of the code that found them.
func CheckTrace(sys *ta.System, goal Goal, trace []Transition) error {
	cons, locsAt, envAt, err := replay(sys, trace, true)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	last := len(locsAt) - 1
	if !goal.Deadlock && !goal.Satisfied(locsAt[last], envAt[last]) {
		return fmt.Errorf("replay: final state does not satisfy the goal")
	}
	// The fine grid: chains of strict bounds can legitimately need a grid
	// finer than half units.
	steps, denom, err := schedule(trace, cons)
	if err != nil {
		return fmt.Errorf("concretize: %w", err)
	}
	if err := checkTimes(cons, steps, denom); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return nil
}

// checkStep is the one definition of a legal discrete step: it returns
// the edges transition t takes from the discrete state (locs, env), or
// why t may not fire there. Indices lie in range; an internal step takes
// an unsynchronized edge; a sync pairs a Send and a Recv edge of two
// distinct automata on t.Chan; while any automaton is committed, some
// participant is; every edge leaves its automaton's current location
// with its integer guard true. Clock constraints are the caller's. The
// search's successor enumeration encodes the same rules separately, so
// the traces it finds are checked by code it does not run.
func checkStep(sys *ta.System, locs, env []int32, t Transition) (e1, e2 *ta.Edge, err error) {
	edge := func(a, e int) *ta.Edge {
		if a < 0 || a >= len(sys.Automata) || e < 0 || e >= len(sys.Automata[a].Edges) {
			return nil
		}
		return &sys.Automata[a].Edges[e]
	}
	if e1 = edge(t.A1, t.E1); e1 == nil {
		return nil, nil, fmt.Errorf("no edge %d of automaton %d", t.E1, t.A1)
	}
	if t.Internal() {
		if e1.Dir != ta.NoSync {
			return nil, nil, fmt.Errorf("internal step takes a synchronizing edge of %s", sys.Automata[t.A1].Name)
		}
	} else {
		if e2 = edge(t.A2, t.E2); e2 == nil {
			return nil, nil, fmt.Errorf("no edge %d of automaton %d", t.E2, t.A2)
		}
		if t.A1 == t.A2 || e1.Dir != ta.Send || e2.Dir != ta.Recv || e1.Chan != t.Chan || e2.Chan != t.Chan {
			return nil, nil, fmt.Errorf("not a send/receive pair of two automata on channel %d", t.Chan)
		}
	}
	committed, moves := false, false
	for ai, a := range sys.Automata {
		if a.Locations[locs[ai]].Kind == ta.Committed {
			committed = true
			moves = moves || ai == t.A1 || ai == t.A2
		}
	}
	if committed && !moves {
		return nil, nil, fmt.Errorf("an automaton is committed but the step leaves no committed location")
	}
	if int(locs[t.A1]) != e1.Src || (e2 != nil && int(locs[t.A2]) != e2.Src) {
		return nil, nil, fmt.Errorf("edge does not leave the current location")
	}
	if !expr.Truthy(e1.IntGuard, env) || (e2 != nil && !expr.Truthy(e2.IntGuard, env)) {
		return nil, nil, fmt.Errorf("integer guard not satisfied")
	}
	return e1, e2, nil
}

// replay walks trace from the initial state of sys, checking every step
// with checkStep, and collects the difference constraints over firing
// times that guards and invariants induce. With states set it also
// returns the discrete state before each step and after the last (index
// 0 is the initial state). Every trace checker of the package uses it.
func replay(sys *ta.System, trace []Transition, states bool) (cons []diffConstraint, locsAt, envAt [][]int32, err error) {
	if err := sys.Freeze(); err != nil {
		return nil, nil, nil, err
	}
	// lastReset[c] = (step index, scaled value) of clock c's latest reset.
	type resetPoint struct {
		step int
		val  int64
	}
	lastReset := make([]resetPoint, sys.NumClocks())
	cons = make([]diffConstraint, 0, replayBound(sys, trace))

	locs := make([]int32, len(sys.Automata))
	for ai, a := range sys.Automata {
		locs[ai] = int32(a.Init)
	}
	env := sys.Table.NewEnv()
	snap := func() {
		if states {
			locsAt = append(locsAt, append([]int32(nil), locs...))
			envAt = append(envAt, append([]int32(nil), env...))
		}
	}

	add := func(u, v int, w int64, strict bool) {
		cons = append(cons, diffConstraint{u, v, w, strict})
	}

	// addClockConstraint records guard/invariant constraint c as holding at
	// time step s. Bound values are scaled to half units; strictness stays
	// symbolic so the solver can pick a grid fine enough to leave real
	// slack on every strict bound (folding it into the value as a fixed -1
	// under-approximates chains of strict constraints).
	addClockConstraint := func(s int, c ta.ClockConstraint) {
		w := int64(c.B.Value()) * Half
		strict := !c.B.IsWeak()
		switch {
		case c.I != 0 && c.J == 0:
			r := lastReset[c.I]
			add(s, r.step, w-r.val, strict)
		case c.I == 0 && c.J != 0:
			r := lastReset[c.J]
			add(r.step, s, w+r.val, strict)
		default:
			ri, rj := lastReset[c.I], lastReset[c.J]
			add(rj.step, ri.step, w-ri.val+rj.val, strict)
		}
	}
	invariantsAt := func(s int) {
		for ai, a := range sys.Automata {
			for _, c := range a.Locations[locs[ai]].Invariant {
				addClockConstraint(s, c)
			}
		}
	}

	snap()
	for si, t := range trace {
		s := si + 1
		e1, e2, err := checkStep(sys, locs, env, t)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("mc: trace step %d: %w", s, err)
		}
		pair, movers := [2]*ta.Edge{e1, e2}, [2]int{t.A1, t.A2}
		edges := pair[:1]
		if e2 != nil {
			edges = pair[:2]
		}

		add(s-1, s, 0, false) // monotonic time: T[s] >= T[s-1]
		if noDelayAt(sys, locs, env) {
			// The source state forbids delay (urgent/committed location or
			// enabled urgent sync): transition s must fire at T[s-1]. The
			// engine never delayed here, so omitting this constraint let
			// Concretize schedule time where the semantics admit none.
			add(s, s-1, 0, false)
		}

		// Source invariants hold up to and including T[s].
		invariantsAt(s)
		for _, e := range edges {
			for _, c := range e.ClockGuard {
				addClockConstraint(s, c)
			}
		}

		// Discrete update; UPPAAL evaluates the sender's update first.
		for i, e := range edges {
			expr.ExecAll(e.Assigns, env)
			locs[movers[i]] = int32(e.Dst)
			for _, r := range e.Resets {
				lastReset[r.Clock] = resetPoint{step: s, val: int64(r.Value) * Half}
			}
		}

		// Target invariants hold on entry at T[s].
		invariantsAt(s)
		snap()
	}
	return cons, locsAt, envAt, nil
}

// replayBound bounds the number of constraints replay collects for trace:
// per step, time monotonicity and the no-delay pin, the clock guards of
// its edges, and the invariants of the state before and after it. A step
// naming an edge that does not exist ends the count, as it ends the replay.
func replayBound(sys *ta.System, trace []Transition) int {
	locs := make([]int, len(sys.Automata))
	inv := 0 // invariant constraints of the locations in locs
	for ai, a := range sys.Automata {
		locs[ai] = a.Init
		inv += len(a.Locations[a.Init].Invariant)
	}
	n := 0
	for _, t := range trace {
		n += 2 + inv
		for i, m := range [2][2]int{{t.A1, t.E1}, {t.A2, t.E2}} {
			if i == 1 && t.Internal() {
				break
			}
			ai, ei := m[0], m[1]
			if ai < 0 || ai >= len(sys.Automata) || ei < 0 || ei >= len(sys.Automata[ai].Edges) {
				return n
			}
			a := sys.Automata[ai]
			e := &a.Edges[ei]
			n += len(e.ClockGuard)
			inv += len(a.Locations[e.Dst].Invariant) - len(a.Locations[locs[ai]].Invariant)
			locs[ai] = e.Dst
		}
		n += inv
	}
	return n
}

// encodeBound is the integer encoding of a difference constraint at grid
// scale (times in units of 1/(scale*Half) model units): bound values scale
// by `scale`, and a strict bound tightens by one grid tick so any integer
// solution leaves real slack on it.
func encodeBound(c diffConstraint, scale int64) int64 {
	w := c.w * scale
	if c.strict {
		w--
	}
	return w
}

// solveDifferenceConstraints finds T[0..k] with T[0]=0 satisfying every
// T[u]-T[v] <= w (< w when strict), preferring the earliest (pointwise
// minimal) solution on the coarsest workable grid. It returns the times and
// the grid scale: times are in units of 1/(scale*Half) model units.
//
// At scale 1 (half units) the greedy forward pass is exact whenever upper
// bounds never force delaying a reset (the common case); Bellman–Ford
// covers the rest. A strict constraint costs one grid tick of slack, so a
// cycle threaded through several strict bounds can be real-feasible yet
// have no half-unit solution; retrying at scale k+2 decides feasibility
// exactly — a simple negative cycle has at most k+1 edges, so scaling
// values by more than that outweighs every per-edge tick, making the
// integer system feasible iff the dense-time one is.
func solveDifferenceConstraints(k int, cons []diffConstraint) ([]int64, int64, error) {
	times := make([]int64, k+1)
	// Group constraints by their later variable m for the greedy pass.
	// T[u] - T[m] <= w with u < m is a lower bound T[m] >= T[u] - w; the
	// rest (upper bounds T[m] - T[v] <= w, and u == v) are checked once
	// T[m] is fixed. Each group's size is counted first, so every group of
	// a kind is carved from one array.
	lower := make([][]diffConstraint, k+1) // constraints giving T[s] >= ...
	check := make([][]diffConstraint, k+1) // constraints checkable once max(u,v) fixed
	sizes := make([]int, 2*(k+1))          // lower's group sizes, then check's
	group := func(c diffConstraint) int {
		if c.u < c.v {
			return c.v
		}
		return k + 1 + c.u
	}
	for _, c := range cons {
		sizes[group(c)]++
	}
	carve := func(groups [][]diffConstraint, sizes []int) {
		total := 0
		for _, n := range sizes {
			total += n
		}
		back := make([]diffConstraint, total)
		for s, n := range sizes {
			groups[s], back = back[:0:n], back[n:]
		}
	}
	carve(lower, sizes[:k+1])
	carve(check, sizes[k+1:])
	for _, c := range cons {
		if g := group(c); g <= k {
			lower[g] = append(lower[g], c)
		} else {
			check[g-k-1] = append(check[g-k-1], c)
		}
	}
	greedyOK := true
greedy:
	for s := 1; s <= k; s++ {
		t := times[s-1]
		for _, c := range lower[s] {
			if lb := times[c.u] - encodeBound(c, 1); lb > t {
				t = lb
			}
		}
		times[s] = t
		for _, c := range check[s] {
			if times[c.u]-times[c.v] > encodeBound(c, 1) {
				greedyOK = false
				break greedy
			}
		}
	}
	if greedyOK {
		return times, 1, nil
	}

	if times, ok := bellmanFord(k, cons, 1); ok {
		return times, 1, nil
	}
	exact := int64(k) + 2
	if times, ok := bellmanFord(k, cons, exact); ok {
		return times, exact, nil
	}
	return nil, 0, fmt.Errorf("mc: trace has inconsistent timing constraints (negative cycle)")
}

// bellmanFord solves the constraints at the given grid scale from a virtual
// source connected to all variables with weight 0, returning false on a
// negative cycle.
func bellmanFord(k int, cons []diffConstraint, scale int64) ([]int64, bool) {
	const inf = int64(1) << 60
	dist := make([]int64, k+1)
	for iter := 0; iter <= k+1; iter++ {
		changed := false
		for _, c := range cons {
			// Edge v -> u with weight w: dist[u] <= dist[v] + w.
			if d := dist[c.v] + encodeBound(c, scale); d < dist[c.u] {
				dist[c.u] = d
				changed = true
				if d < -inf {
					return nil, false
				}
			}
		}
		if !changed {
			// Shift so T[0] = 0.
			times := make([]int64, k+1)
			for i := range dist {
				times[i] = dist[i] - dist[0]
			}
			return times, true
		}
	}
	return nil, false
}

// noDelayAt reports whether delay is forbidden in the given discrete
// state: some automaton occupies an urgent or committed location, or an
// urgent-channel synchronization between two distinct automata is enabled
// (urgent edges carry no clock guards — Validate enforces that — so
// enabledness is purely discrete). It encodes the engine's urgency
// classification separately, so replay audits concretized schedules
// against the same semantics with code the search does not run. Requires
// Freeze.
func noDelayAt(sys *ta.System, locs []int32, env []int32) bool {
	for ai, a := range sys.Automata {
		switch a.Locations[locs[ai]].Kind {
		case ta.Committed, ta.Urgent:
			return true
		}
	}
	var senders map[int][]int
	for ai, a := range sys.Automata {
		for _, ei := range a.OutEdges(int(locs[ai])) {
			e := &a.Edges[ei]
			if e.Dir != ta.Send || !sys.Channel(e.Chan).Urgent {
				continue
			}
			if expr.Truthy(e.IntGuard, env) {
				if senders == nil {
					senders = make(map[int][]int)
				}
				senders[e.Chan] = append(senders[e.Chan], ai)
			}
		}
	}
	if senders == nil {
		return false
	}
	for ai, a := range sys.Automata {
		for _, ei := range a.OutEdges(int(locs[ai])) {
			e := &a.Edges[ei]
			if e.Dir != ta.Recv || !sys.Channel(e.Chan).Urgent {
				continue
			}
			if !expr.Truthy(e.IntGuard, env) {
				continue
			}
			for _, sender := range senders[e.Chan] {
				if sender != ai {
					return true
				}
			}
		}
	}
	return false
}

// FormatTrace renders a concretized trace, one timestamped transition per
// line.
func FormatTrace(sys *ta.System, steps []ConcreteStep) string {
	out := ""
	for _, s := range steps {
		out += fmt.Sprintf("@%s %s\n", TimeString(s.Time), s.Trans.Format(sys))
	}
	return out
}
