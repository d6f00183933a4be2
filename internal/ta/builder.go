package ta

import (
	"fmt"

	"guidedta/internal/expr"
)

// EdgeBuilder is a fluent helper for constructing edges. Guards and
// assignments come either as source text (Guard, Assign: parsed against
// the system's table, for hand-written models) or as ready expr trees
// (GuardExpr, AssignExpr: for generated models, which skip the parser).
// Obtain one with Automaton.Edge, chain modifiers, and finish with Done
// (which appends the edge and returns its index).
//
//	a.Edge(i2, i1aa).
//	    Guard("posi[3]==0 && next==m1").
//	    Sync("b2left", ta.Recv).
//	    Assign("posi[3]:=1, posi[5]:=0").
//	    Reset(x).
//	    Done()
type EdgeBuilder struct {
	a *Automaton
	e Edge
}

// Edge starts building an edge from src to dst.
func (a *Automaton) Edge(src, dst int) *EdgeBuilder {
	return &EdgeBuilder{a: a, e: Edge{Src: src, Dst: dst, Chan: -1}}
}

// Guard conjoins a parsed integer guard (panics on parse error; guards are
// model-construction literals).
func (b *EdgeBuilder) Guard(src string) *EdgeBuilder {
	return b.GuardExpr(expr.MustParse(src, b.a.sys.Table))
}

// GuardExpr conjoins an already-built integer guard.
func (b *EdgeBuilder) GuardExpr(g expr.Expr) *EdgeBuilder {
	if g == nil {
		return b
	}
	if b.e.IntGuard == nil {
		b.e.IntGuard = g
	} else {
		b.e.IntGuard = expr.Binary{Op: expr.OpAnd, L: b.e.IntGuard, R: g}
	}
	return b
}

// When adds clock constraints to the guard.
func (b *EdgeBuilder) When(cs ...ClockConstraint) *EdgeBuilder {
	b.e.ClockGuard = append(b.e.ClockGuard, cs...)
	return b
}

// Sync sets the channel synchronization by name.
func (b *EdgeBuilder) Sync(channel string, dir SyncDir) *EdgeBuilder {
	idx, ok := b.a.sys.ChannelIndex(channel)
	if !ok {
		panic(fmt.Sprintf("ta: unknown channel %q", channel))
	}
	b.e.Chan = idx
	b.e.Dir = dir
	return b
}

// Assign appends parsed assignments (panics on parse error).
func (b *EdgeBuilder) Assign(src string) *EdgeBuilder {
	return b.AssignExpr(expr.MustParseAssignList(src, b.a.sys.Table)...)
}

// AssignExpr appends already-built assignments, the tree form of Assign.
func (b *EdgeBuilder) AssignExpr(as ...expr.Assign) *EdgeBuilder {
	b.e.Assigns = append(b.e.Assigns, as...)
	return b
}

// Reset appends clock resets to zero.
func (b *EdgeBuilder) Reset(clocks ...int) *EdgeBuilder {
	for _, c := range clocks {
		b.e.Resets = append(b.e.Resets, ClockReset{Clock: c})
	}
	return b
}

// ResetTo appends a clock reset to a constant value.
func (b *EdgeBuilder) ResetTo(clock int, v int32) *EdgeBuilder {
	b.e.Resets = append(b.e.Resets, ClockReset{Clock: clock, Value: v})
	return b
}

// Note attaches a provenance comment (e.g. "guide: direct route").
func (b *EdgeBuilder) Note(comment string) *EdgeBuilder {
	b.e.Comment = comment
	return b
}

// Done appends the edge and returns its index.
func (b *EdgeBuilder) Done() int {
	return b.a.AddEdge(b.e)
}
