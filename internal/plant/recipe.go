package plant

import (
	"strconv"

	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// buildRecipe constructs the recipe automaton for batch bi (the paper's
// Figure 7): it decides which machine types are visited, for how long, and
// measures the batch's total time in the plant against the temperature
// deadline. In guided models the recipe is also where the `next`
// destination guide and (with all guides) the `nextbatch` start-order guide
// are computed.
func (b *builder) buildRecipe(bi int) {
	q := b.cfg.Qualities[bi]
	stages := b.cfg.Params.Stages(q)
	bs := strconv.Itoa(bi)
	a := b.sys.AddAutomaton("Recipe" + bs + "_" + qualityName(q))
	b.p.RecipeAuto = append(b.p.RecipeAuto, len(b.sys.Automata)-1)
	// A pour edge per track the first stage can start on, an on edge per
	// machine of each stage and an off edge per stage, and the cast report.
	edges := 1
	for tr := 1; tr <= NumTracks; tr++ {
		if machineOnTrack(stages[0], tr) != 0 {
			edges++
		}
	}
	for _, st := range stages {
		edges += len(st.Machines) + 1
	}
	reserve(a, 1+2*len(stages)+2, edges)

	t := b.treatClock[bi]
	tot := b.totalClock[bi]
	dl := b.cfg.Params.Deadline

	idle := a.AddLocation("idle", ta.Normal)
	a.SetInit(idle)
	goLoc := make([]int, len(stages))
	onLoc := make([]int, len(stages))
	for k, st := range stages {
		ks := strconv.Itoa(k)
		goLoc[k] = a.AddLocation("go"+ks, ta.Normal)
		a.SetInvariant(goLoc[k], ta.LE(tot, dl))
		onLoc[k] = a.AddLocation("on"+ks, ta.Normal)
		a.SetInvariant(onLoc[k], ta.LE(t, st.Time), ta.LE(tot, dl))
	}
	tocast := a.AddLocation("tocast", ta.Normal)
	a.SetInvariant(tocast, ta.LE(tot, dl))
	casted := a.AddLocation("casted", ta.Normal)

	// Pouring: choose the track of the first treatment. Guided models pick
	// the emptier track (the paper's first guide expression); unguided
	// models offer both tracks nondeterministically. Recipes whose first
	// stage can only run on one track (m3) only get that track's edge.
	first := stages[0]
	for tr := 1; tr <= NumTracks; tr++ {
		m := machineOnTrack(first, tr)
		if m == 0 {
			continue
		}
		e := a.Edge(idle, goLoc[0]).
			Sync("goT"+strconv.Itoa(tr)+"_"+bs, ta.Send).
			Reset(tot)
		if b.guided {
			// next[b] := m
			e.AssignExpr(set(b.next[bi], num(m))).
				Note("guide: head for the chosen first machine")
			if b.g.Balance && len(first.Machines) > 1 {
				// posi[0]+...+posi[6] <= posii[0]+...+posii[6] on track 1, > on track 2
				emptier := le(b.trackSum[1], b.trackSum[2])
				if tr == 2 {
					emptier = gt(b.trackSum[1], b.trackSum[2])
				}
				e.GuardExpr(emptier).
					Note("guide: start on the emptier track")
			}
		}
		// Pour in production-list order, and pace pours to the caster's
		// progress: a batch may start at most PourWindow casts ahead,
		// preventing queue build-up that would break the temperature
		// deadline deep in the search (the paper's "starting a batch based
		// on the progress of the batch just before it", keyed here to
		// casting progress). The two conjuncts are separate guide families
		// so the search layer can weigh ordering and pacing independently.
		// nextbatch == b && castnext > b-w
		var pour expr.Expr
		if b.g.PourOrder {
			pour = eq(b.nextbatch, num(bi))
		}
		if b.g.PourWindow > 0 {
			window := gt(b.castnext, num(bi-b.g.PourWindow))
			if pour == nil {
				pour = window
			} else {
				pour = and(pour, window)
			}
		}
		if pour != nil {
			e.GuardExpr(pour).
				Note("guide: pour in order, paced by casting progress")
		}
		e.Done()
	}

	// Treatment stages: turn the machine on when the batch stands at an
	// acceptable machine, run for exactly the stage time, turn it off.
	for k, st := range stages {
		last := k == len(stages)-1
		for _, m := range st.Machines {
			on := a.Edge(goLoc[k], onLoc[k]).
				GuardExpr(eq(b.atm[bi], num(m))). // atm[b] == m
				Sync("mon_"+bs, ta.Send).
				Reset(t)
			if b.g.PourOrder && last {
				// The paper delays the nextbatch update until the batch
				// just ahead starts its final treatment:
				// nextbatch := nextbatch + 1.
				on.AssignExpr(incr(b.nextbatch)).
					Note("guide: release the next batch")
			}
			on.Done()
		}
		off := a.Edge(onLoc[k], targetAfter(k, len(stages), goLoc, tocast)).
			When(ta.EQ(t, st.Time)...).
			Sync("moff_"+bs, ta.Send)
		if b.guided {
			if last {
				off.AssignExpr(set(b.next[bi], b.cast)) // next[b] := cast
			} else {
				// next[b] := (machine choice)
				off.AssignExpr(set(b.next[bi], b.stageChoiceExpr(stages[k+1], bi, b.g.Balance))).
					Note("guide: choose the next machine on the emptier track")
			}
		}
		off.Done()
	}

	// The batch reports the start of its cast; the deadline clock stops
	// mattering once casting has begun.
	a.Edge(tocast, casted).
		Sync("atcast_"+bs, ta.Recv).
		Done()
}

// machineOnTrack returns the stage's machine on the given track, or 0.
func machineOnTrack(st Stage, track int) int {
	for _, m := range st.Machines {
		if MachineTrack(m) == track {
			return m
		}
	}
	return 0
}

// targetAfter returns the location following stage k.
func targetAfter(k, total int, goLoc []int, tocast int) int {
	if k == total-1 {
		return tocast
	}
	return goLoc[k+1]
}
