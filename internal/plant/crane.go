package plant

import (
	"strconv"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// buildCrane constructs crane automaton ci (0 or 1; the paper's Figure 8).
// A crane is empty or full at one of the eight overhead points; moves,
// pickups, and set-downs take CMove/CUp/CDown time. Overhead occupancy
// (cpos) prevents the cranes from passing each other. In guided models an
// empty crane moves only toward a flagged pickup or to give way (creq), and
// a full crane moves only toward the destination its batch programmed.
func (b *builder) buildCrane(ci int) {
	c := ci + 1 // 1-based crane id in names
	cs := strconv.Itoa(c)
	unit := "Crane" + cs
	a := b.sys.AddAutomaton(unit)
	ai := len(b.sys.Automata) - 1
	b.p.CraneAuto[ci] = ai
	x := b.craneClock[ci]
	pm := b.cfg.Params
	// Per load state, one transit location and two edges per move; one
	// location and two edges per pickup and per set-down.
	lo, hi := b.craneRange(ci)
	moves := 2 * 2 * (hi - lo)
	ends := len(b.liftPoints(ci)) + len(b.dropPoints(ci))
	reserve(a, 2*NumPts+moves+ends, 2*moves+2*ends)

	empty := make([]int, NumPts)
	full := make([]int, NumPts)
	for p := 0; p < NumPts; p++ {
		ps := strconv.Itoa(p)
		empty[p] = a.AddLocation("e"+ps, ta.Normal)
		full[p] = a.AddLocation("f"+ps, ta.Normal)
	}
	if ci == 0 {
		a.SetInit(empty[PtEntry1])
	} else {
		a.SetInit(empty[PtStore])
	}

	// Movement edges, both load states and directions, within the crane's
	// work region (a guide; the whole track when unguided).
	for p := lo; p <= hi; p++ {
		for _, to := range []int{p - 1, p + 1} {
			if to < lo || to > hi {
				continue
			}
			b.buildCraneMove(a, ai, ci, empty, p, to, x, pm, unit, false)
			b.buildCraneMove(a, ai, ci, full, p, to, x, pm, unit, true)
		}
	}

	// Pickups: receive the batch's lift request, hoist for CUp, then free
	// the landing position. (The hoisting delay is the one whose omission
	// was the paper's modeling error #1.)
	for _, p := range b.liftPoints(ci) {
		hoist := a.AddLocation("hoist"+strconv.Itoa(p), ta.Normal)
		a.SetInvariant(hoist, ta.LE(x, pm.CUp))
		ei := a.Edge(empty[p], hoist).
			Sync(liftChan(cs, p), ta.Recv).
			Reset(x).
			Done()
		b.cmd(ai, ei, unit, "PickupAt"+PointName(p), p)
		// The landing position frees: posi[0] := 0, bufocc := 0, ...
		var buf [2]expr.Assign
		as := append(buf[:0], set(b.pointOcc(p), num(0)))
		done := a.Edge(hoist, full[p]).
			When(ta.GE(x, pm.CUp)).
			Sync("lifted"+cs, ta.Send)
		if b.guided {
			// creqby := c
			as = append(as, set(b.creqby, num(c)))
			done.Note("guide: ask the other crane to give way while loaded")
		}
		done.AssignExpr(as...).Done()
	}

	// Set-downs: receive the batch's drop request, lower for CDown.
	for _, p := range b.dropPoints(ci) {
		lower := a.AddLocation("lower"+strconv.Itoa(p), ta.Normal)
		a.SetInvariant(lower, ta.LE(x, pm.CDown))
		ei := a.Edge(full[p], lower).
			Sync(dropChan(cs, p), ta.Recv).
			Reset(x).
			Done()
		b.cmd(ai, ei, unit, "PutdownAt"+PointName(p), p)
		done := a.Edge(lower, empty[p]).
			When(ta.GE(x, pm.CDown)).
			Sync("dropped"+cs, ta.Send)
		if b.guided {
			done.AssignExpr(set(b.creqby, num(0))) // creqby := 0
		}
		done.Done()
	}
}

// buildCraneMove emits one claim/traverse move of a crane.
func (b *builder) buildCraneMove(a *ta.Automaton, ai, ci int, locs []int, from, to, x int, pm Params, unit string, loaded bool) {
	c := ci + 1
	dir := "Right"
	if to < from {
		dir = "Left"
	}
	state := "e"
	if loaded {
		state = "f"
	}
	transit := a.AddLocation(state+strconv.Itoa(from)+"mv"+strconv.Itoa(to), ta.Normal)
	a.SetInvariant(transit, ta.LE(x, pm.CMove))

	// cpos[to] == 0; cpos[to] := 1
	claim := a.Edge(locs[from], transit).
		GuardExpr(eq(b.cpos[to], num(0))).
		AssignExpr(set(b.cpos[to], num(1))).
		Reset(x)
	if loaded {
		if b.g.Steer {
			// cdestC > from (rightward) or cdestC < from (leftward)
			toward := gt(b.cdest[ci], num(from))
			if to < from {
				toward = lt(b.cdest[ci], num(from))
			}
			claim.GuardExpr(toward).
				Note("guide: loaded crane moves only toward its destination")
		}
	} else if b.g.Demand {
		if ci == 0 && from == PtBuffer && to < from {
			// Crane 1 may always vacate the shared buffer point leftward;
			// otherwise it would park there after a drop and lock crane 2
			// out of the buffer.
			claim.Note("guide: vacate the shared buffer point")
		} else {
			// Give-way moves are directional: the cranes cannot pass each
			// other, so crane 1 only ever needs to yield leftward and
			// crane 2 rightward.
			away := (ci == 0 && to < from) || (ci == 1 && to > from)
			// wantlift[p]+... > 0, and on give-way moves
			// (wantlift[p]+... > 0) || (creqby != 0 && creqby != c)
			g := gt(b.wantliftSum(ci, from, to), num(0))
			if away {
				g = or(g, and(ne(b.creqby, num(0)), ne(b.creqby, num(c))))
			}
			claim.GuardExpr(g).
				Note("guide: empty crane moves only toward work or to give way")
		}
	}
	ei := claim.Done()
	b.cmd(ai, ei, unit, "Move"+dir, from)

	a.Edge(transit, locs[to]).
		When(ta.GE(x, pm.CMove)).
		AssignExpr(set(b.cpos[from], num(0))). // cpos[from] := 0
		Done()
}

// wantliftSum is the guide expression summing the wantlift flags in the
// movement direction (strictly beyond the current position, within the
// crane's serviceable points): wantlift[p]+wantlift[q]+..., or 0 when no
// such point exists.
func (b *builder) wantliftSum(ci, from, to int) expr.Expr {
	var s expr.Expr
	for _, p := range b.liftPoints(ci) {
		if (to > from && p > from) || (to < from && p < from) {
			if s == nil {
				s = b.wantlift[p]
			} else {
				s = add(s, b.wantlift[p])
			}
		}
	}
	if s == nil {
		return num(0)
	}
	return s
}
