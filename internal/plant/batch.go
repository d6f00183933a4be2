package plant

import (
	"fmt"
	"strconv"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// batchLocs records the location indices of one batch automaton that other
// builders and tests need.
type batchLocs struct {
	waiting  int
	slot     [NumTracks + 1][TrackLen]int // [track][slot], track 1-based
	treat    [NumMach + 1]int
	lifting  [2]int // being lifted by crane c
	carried  [2]int // on crane c
	arr      [2][NumPts]int
	buf      int
	hold     int
	casting0 int
	casting  int
	out      int
	done     int
}

// pointLoc maps an overhead point to the batch location standing under it.
func (l *batchLocs) pointLoc(p int) int {
	switch p {
	case PtEntry1:
		return l.slot[1][SlotLoad]
	case PtExit1:
		return l.slot[1][SlotExit]
	case PtEntry2:
		return l.slot[2][SlotLoad]
	case PtExit2:
		return l.slot[2][SlotExit]
	case PtBuffer:
		return l.buf
	case PtHold:
		return l.hold
	case PtCastOut:
		return l.out
	default:
		panic(fmt.Sprintf("plant: point %d has no batch location", p))
	}
}

// buildBatch constructs the batch automaton for batch index bi: the
// topology-and-physics component of a ladle (the paper's Figure 9; the
// guided fragment is Figure 4).
func (b *builder) buildBatch(bi int) {
	bs := strconv.Itoa(bi)
	a := b.sys.AddAutomaton("Batch" + bs)
	ai := len(b.sys.Automata) - 1
	// In the order added below. Locations: waiting, the track slots, the
	// machines, per crane lifting, carried and an arrival per droppable
	// point, the six casting-side locations, and a transit per track move.
	// Edges: a pour per track, two per move, on and off per machine, the
	// lifts, two lift completions, two per set-down, and three for casting.
	moves := NumTracks * 2 * (TrackLen - 1)
	lifts := len(b.liftPoints(0)) + len(b.liftPoints(1))
	drops := len(b.dropPoints(0)) + len(b.dropPoints(1))
	reserve(a, 1+NumTracks*TrackLen+NumMach+2*(2+len(droppablePoints))+6+moves,
		NumTracks+2*moves+2*NumMach+lifts+2+2*drops+3)
	b.p.BatchAuto = append(b.p.BatchAuto, ai)
	x := b.batchClock[bi]
	unit := "Load" + bs
	pm := b.cfg.Params

	var L batchLocs
	L.waiting = a.AddLocation("waiting", ta.Normal)
	for tr := 1; tr <= NumTracks; tr++ {
		for s := 0; s < TrackLen; s++ {
			L.slot[tr][s] = a.AddLocation("t"+strconv.Itoa(tr)+"s"+strconv.Itoa(s), ta.Normal)
		}
	}
	for m := 1; m <= NumMach; m++ {
		L.treat[m] = a.AddLocation("treat"+strconv.Itoa(m), ta.Normal)
	}
	for c := 0; c < 2; c++ {
		cs := strconv.Itoa(c + 1)
		L.lifting[c] = a.AddLocation("lifting"+cs, ta.Normal)
		L.carried[c] = a.AddLocation("crane"+cs, ta.Normal)
		for _, p := range droppablePoints {
			L.arr[c][p] = a.AddLocation("arr"+cs+"_"+strconv.Itoa(p), ta.Normal)
		}
	}
	L.buf = a.AddLocation("buf", ta.Normal)
	L.hold = a.AddLocation("hold", ta.Normal)
	L.casting0 = a.AddLocation("casting0", ta.Committed)
	L.casting = a.AddLocation("casting", ta.Normal)
	L.out = a.AddLocation("out", ta.Normal)
	L.done = a.AddLocation("done", ta.Normal)
	a.SetInit(L.waiting)

	// Pouring: the batch appears at a free load point, synchronized with
	// its recipe (which chooses the track).
	for tr := 1; tr <= NumTracks; tr++ {
		ts := strconv.Itoa(tr)
		load := b.trackOcc(tr)[SlotLoad]
		ei := a.Edge(L.waiting, L.slot[tr][SlotLoad]).
			GuardExpr(eq(load, num(0))). // posi[0] == 0
			Sync("goT"+ts+"_"+bs, ta.Recv).
			AssignExpr(set(load, num(1))). // posi[0] := 1
			Done()
		b.cmd(ai, ei, unit, "PourTrack"+ts, tr)
	}

	// Track moves: claim the destination slot, traverse for exactly BMove,
	// release the source slot.
	for tr := 1; tr <= NumTracks; tr++ {
		for s := 0; s < TrackLen-1; s++ {
			b.buildMove(a, ai, bi, &L, tr, s, s+1, x, pm, unit)
		}
		for s := 1; s < TrackLen; s++ {
			b.buildMove(a, ai, bi, &L, tr, s, s-1, x, pm, unit)
		}
	}

	// Machine treatments: the recipe drives on/off; while treating the
	// batch cannot move.
	for m := 1; m <= NumMach; m++ {
		ms := strconv.Itoa(m)
		slotLoc := L.slot[MachineTrack(m)][MachineSlot(m)]
		on := a.Edge(slotLoc, L.treat[m]).
			Sync("mon_"+bs, ta.Recv).
			Done()
		b.cmd(ai, on, unit, "Machine"+ms+"On", m)
		off := a.Edge(L.treat[m], slotLoc).
			Sync("moff_"+bs, ta.Recv).
			Done()
		b.cmd(ai, off, unit, "Machine"+ms+"Off", m)
	}

	// Crane pickups at liftable points (in guided models each crane only
	// serves its work region).
	for c := 0; c < 2; c++ {
		cs := strconv.Itoa(c + 1)
		for _, p := range b.liftPoints(c) {
			e := a.Edge(L.pointLoc(p), L.lifting[c]).
				Sync(liftChan(cs, p), ta.Send)
			switch p {
			case PtEntry1, PtExit1:
				if b.g.Route {
					e.GuardExpr(b.offTrackExpr(bi, 1)).Note("guide: lift only when leaving track")
				}
			case PtEntry2, PtExit2:
				if b.g.Route {
					e.GuardExpr(b.offTrackExpr(bi, 2)).Note("guide: lift only when leaving track")
				}
			case PtBuffer:
				if b.g.BufferGate {
					// next[b] == cast && holdocc == 0 && castnext == b
					e.GuardExpr(and(and(eq(b.next[bi], b.cast), eq(b.holdocc, num(0))), eq(b.castnext, num(bi)))).
						Note("guide: leave buffer only when it is this ladle's turn and the holding place is free")
				}
			}
			if b.guided {
				e.AssignExpr(set(b.wantlift[p], num(0))) // wantlift[p] := 0
			}
			e.Done()
		}
	}

	// Lift completion: the batch is now on the crane; in guided models it
	// programs the crane's destination. Crane 1 stages cast-bound ladles
	// into the buffer (the buffer-to-hold hop, three time units, always
	// fits within one casting period — this keeps casting continuous);
	// crane 2 moves them buffer-to-hold and empties to storage.
	for c := 0; c < 2; c++ {
		e := a.Edge(L.lifting[c], L.carried[c]).
			Sync("lifted"+strconv.Itoa(c+1), ta.Recv)
		if b.guided {
			next := b.next[bi]
			// cdest1 := (next[b]<=3 ? 0 : (next[b]<=5 ? 2 : 4))
			dest := set(b.cdest[0], cond(le(next, num(3)), num(PtEntry1),
				cond(le(next, num(5)), num(PtEntry2), num(PtBuffer))))
			if c == 1 {
				// cdest2 := (next[b]==cast ? 5 : 7)
				dest = set(b.cdest[1], cond(eq(next, b.cast), num(PtHold), num(PtStore)))
			}
			e.AssignExpr(dest).Note("guide: crane carrying a batch is steered by the batch")
		}
		e.Done()
	}

	// Set-downs: claim the landing slot, descend, arrive.
	for c := 0; c < 2; c++ {
		cs := strconv.Itoa(c + 1)
		for _, p := range b.dropPoints(c) {
			e := a.Edge(L.carried[c], L.arr[c][p]).
				Sync(dropChan(cs, p), ta.Send)
			if occ := b.pointOcc(p); occ != nil {
				e.GuardExpr(eq(occ, num(0))).AssignExpr(set(occ, num(1))) // occ == 0; occ := 1
			}
			if b.g.Steer {
				// cdestC == p
				e.GuardExpr(eq(b.cdest[c], num(p))).
					Note("guide: set down only at the programmed destination")
			}
			e.Done()

			var buf [2]expr.Assign
			as := buf[:0]
			switch p {
			case PtEntry1, PtExit1:
				if b.guided {
					// wantlift[p] := (next[b] >= 4 ? 1 : 0)
					as = append(as, set(b.wantlift[p], flag(b.offTrackExpr(bi, 1))))
				}
			case PtEntry2, PtExit2:
				if b.guided {
					// wantlift[p] := ((next[b] <= 3 || next[b] >= 6) ? 1 : 0)
					as = append(as, set(b.wantlift[p], flag(b.offTrackExpr(bi, 2))))
				}
			case PtBuffer:
				if b.guided {
					// wantlift[p] := (holdocc == 0 ? 1 : 0)
					as = append(as, set(b.wantlift[p], flag(eq(b.holdocc, num(0)))))
				}
				if b.g.CastPace {
					as = append(as, set(b.progress[bi], num(1))) // progress[b] := 1
				}
			case PtHold:
				if b.g.CastPace {
					as = append(as, set(b.progress[bi], num(1))) // progress[b] := 1
				}
			case PtStore:
				as = append(as, incr(b.stored)) // stored := stored + 1
			}
			a.Edge(L.arr[c][p], b.dropTarget(&L, p)).
				Sync("dropped"+cs, ta.Recv).
				AssignExpr(as...).
				Done()
		}
	}

	// Casting: start (in production-list order), report to the recipe,
	// wait for the cast to finish, then appear at the caster output as an
	// empty ladle.
	var buf [3]expr.Assign
	// castnext := castnext + 1, holdocc := 0
	startAs := append(buf[:0], incr(b.castnext), set(b.holdocc, num(0)))
	start := a.Edge(L.hold, L.casting0).
		GuardExpr(eq(b.castnext, num(bi))). // castnext == b
		Sync("caststart", ta.Send)
	if b.guided {
		// wantlift[4] := bufocc
		startAs = append(startAs, set(b.wantlift[PtBuffer], b.bufocc))
		start.Note("guide: flag a buffered batch once the holding place frees")
	}
	start.AssignExpr(startAs...)
	if b.g.CastPace && bi < b.n-1 {
		// Casting must be continuous: commit to a cast only when the next
		// ladle of the production list is already staged in the buffer (or
		// holding) area, three time units from the holding place:
		// progress[b+1] == 1.
		start.GuardExpr(eq(b.progress[bi+1], num(1))).
			Note("guide: cast only when the next ladle is staged nearby")
	}
	ei := start.Done()
	b.cmd(ai, ei, "Caster", "CastLoad"+bs, bi)

	a.Edge(L.casting0, L.casting).
		Sync("atcast_"+bs, ta.Send).
		Done()

	ejectAs := append(buf[:0], set(b.outocc, num(1))) // outocc := 1
	if b.guided {
		// next[b] := store, wantlift[6] := 1
		ejectAs = append(ejectAs, set(b.next[bi], b.store), set(b.wantlift[PtCastOut], num(1)))
	}
	ei = a.Edge(L.casting, L.out).
		GuardExpr(eq(b.outocc, num(0))). // outocc == 0
		Sync("castdone", ta.Recv).
		AssignExpr(ejectAs...).
		Done()
	b.cmd(ai, ei, "Caster", "EjectLoad"+bs, bi)
}

// dropTarget maps a drop point to the batch location reached after the
// crane finishes lowering (storage completes the batch).
func (b *builder) dropTarget(L *batchLocs, p int) int {
	if p == PtStore {
		return L.done
	}
	return L.pointLoc(p)
}

// buildMove emits the two-edge claim/traverse pattern for one slot move.
func (b *builder) buildMove(a *ta.Automaton, ai, bi int, L *batchLocs, tr, from, to int, x int, pm Params, unit string) {
	dir := "Right"
	suffix := "r"
	if to < from {
		dir = "Left"
		suffix = "l"
	}
	ts := strconv.Itoa(tr)
	transit := a.AddLocation("t"+ts+"s"+strconv.Itoa(from)+suffix, ta.Normal)
	a.SetInvariant(transit, ta.LE(x, pm.BMove))

	occ := b.trackOcc(tr)
	var buf [3]expr.Assign
	as := append(buf[:0], set(occ[to], num(1))) // posi[to] := 1
	if m := MachineAtSlot(tr, from); m != 0 {
		as = append(as, set(b.atm[bi], num(0))) // atm[b] := 0
	}
	if b.guided && (from == SlotLoad || from == SlotExit) {
		as = append(as, set(b.wantlift[b.slotPoint(tr, from)], num(0))) // wantlift[p] := 0
	}
	claim := a.Edge(L.slot[tr][from], transit).
		GuardExpr(eq(occ[to], num(0))). // posi[to] == 0
		AssignExpr(as...).
		Reset(x)
	if b.g.Route {
		claim.GuardExpr(b.moveGuard(bi, tr, from, to)).Note("guide: move only along the direct route")
	}
	ei := claim.Done()
	b.cmd(ai, ei, unit, "Track"+ts+dir, from)

	as = append(buf[:0], set(occ[from], num(0))) // posi[from] := 0
	if m := MachineAtSlot(tr, to); m != 0 {
		as = append(as, set(b.atm[bi], num(m))) // atm[b] := m
	}
	if b.guided && (to == SlotLoad || to == SlotExit) {
		// wantlift[p] := (offtrack ? 1 : 0)
		as = append(as, set(b.wantlift[b.slotPoint(tr, to)], flag(b.offTrackExpr(bi, tr))))
	}
	a.Edge(transit, L.slot[tr][to]).
		When(ta.GE(x, pm.BMove)).
		AssignExpr(as...).
		Done()
}

// slotPoint maps a track end slot to its overhead point.
func (b *builder) slotPoint(tr, slot int) int {
	if slot == SlotLoad {
		return trackEntryPoint(tr)
	}
	return trackExitPoint(tr)
}

// moveGuard is the guided direct-route condition for a move from slot
// `from` toward `to` on track tr (the paper's Figure 4 decoration: "next
// must be m1 to move left of i2; next must be beyond the track to be picked
// up").
func (b *builder) moveGuard(bi, tr, from, to int) expr.Expr {
	next := b.next[bi]
	var destSlot expr.Expr
	if tr == 1 {
		// (next[b]==1 ? 1 : (next[b]==2 ? 3 : 5))
		destSlot = cond(eq(next, num(M1)), num(MachineSlot(M1)),
			cond(eq(next, num(M2)), num(MachineSlot(M2)), num(MachineSlot(M3))))
	} else {
		// (next[b]==4 ? 1 : 3)
		destSlot = cond(eq(next, num(M4)), num(MachineSlot(M4)), num(MachineSlot(M5)))
	}
	offTrack := b.offTrackExpr(bi, tr)
	if to > from {
		// Rightward: either the destination lies off this track (head for
		// the exit) or it is a machine further right:
		// (offtrack) || destslot > from.
		return or(offTrack, gt(destSlot, num(from)))
	}
	// Leftward: only toward an on-track machine further left:
	// !(offtrack) && destslot < from.
	return and(not(offTrack), lt(destSlot, num(from)))
}
