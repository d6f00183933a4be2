package plant

import (
	"strconv"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// buildCaster constructs the continuous casting machine. Casting one ladle
// takes exactly CastTime; because casting must be continuous, the machine
// turns over in zero time (committed location), so a schedule is only found
// if the next ladle is already waiting in the holding place — exactly the
// constraint Section 2 of the paper states.
func (b *builder) buildCaster() {
	a := b.sys.AddAutomaton("Caster")
	b.p.CasterAuto = len(b.sys.Automata) - 1
	cc := b.casterClock
	n := b.n
	if n > 1 {
		reserve(a, 4, 4)
	} else {
		reserve(a, 4, 3)
	}
	castTime := b.cfg.Params.CastTime

	idle := a.AddLocation("idle", ta.Normal)
	// A cast takes CastTime; the ladle swap must then happen within the
	// TurnTime window ("casting must be continuous"), after which the next
	// cast starts instantly (committed turn).
	casting := a.AddLocation("casting", ta.Normal)
	a.SetInvariant(casting, ta.LE(cc, castTime+b.cfg.Params.TurnTime))
	turn := a.AddLocation("turn", ta.Committed)
	done := a.AddLocation("done", ta.Normal)
	a.SetInit(idle)

	// Commands for cast start/eject are registered on the batch side
	// (which knows the ladle id), so the caster's edges carry none.
	a.Edge(idle, casting).
		Sync("caststart", ta.Recv).
		Reset(cc).
		Done()

	// Cast completion: continue with the next ladle (committed turn) or
	// finish after the last one.
	// castsdone < n-1 / castsdone == n-1; castsdone := castsdone + 1
	if n > 1 {
		a.Edge(casting, turn).
			When(ta.GE(cc, castTime)).
			GuardExpr(lt(b.castsdone, num(n-1))).
			Sync("castdone", ta.Send).
			AssignExpr(incr(b.castsdone)).
			Reset(cc).
			Done()
	}
	a.Edge(casting, done).
		When(ta.GE(cc, castTime)).
		GuardExpr(eq(b.castsdone, num(n-1))).
		Sync("castdone", ta.Send).
		AssignExpr(incr(b.castsdone)).
		Done()

	a.Edge(turn, casting).
		Sync("caststart", ta.Recv).
		Reset(cc).
		Done()
}

// buildList constructs the production-list automaton, whose final location
// is the scheduling goal: every batch cast in order and every empty ladle
// stored.
func (b *builder) buildList() {
	a := b.sys.AddAutomaton("List")
	b.p.ListAuto = len(b.sys.Automata) - 1
	reserve(a, 2, 1)
	producing := a.AddLocation("producing", ta.Normal)
	finished := a.AddLocation("finished", ta.Normal)
	a.SetInit(producing)
	allStored := eq(b.stored, num(b.n)) // stored == n
	a.Edge(producing, finished).
		GuardExpr(allStored).
		Done()

	b.p.Goal = mc.Goal{
		Desc: "schedule " + strconv.Itoa(b.n) + " batches (" + b.cfg.Guides.String() + " guides)",
		Expr: allStored,
		Locs: []mc.LocRequirement{{Automaton: b.p.ListAuto, Location: finished}},
	}
}
