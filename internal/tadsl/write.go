package tadsl

import (
	"io"
	"strconv"

	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// flushAt is how much canonical text the printer gathers before handing
// it to its writer. The buffer stays small and fixed: a model's text is
// streamed, never materialized whole.
const flushAt = 4 << 10

// Write renders a system (and optional query) in the tadsl format, such
// that Parse(Write(m)) reconstructs an equivalent model. It returns the
// first error the writer reports; nothing is written after it.
func Write(w io.Writer, sys *ta.System, query *mc.Goal) error {
	p := printer{w: w, buf: make([]byte, 0, flushAt+flushAt/4)}
	p.model(sys, query)
	p.flush()
	return p.err
}

// printer appends the canonical text of a model line by line into buf and
// passes it on to w whenever a line ends past flushAt bytes.
type printer struct {
	w   io.Writer
	buf []byte
	err error
}

// endLine terminates the current line and flushes when the buffer is full.
func (p *printer) endLine() {
	p.buf = append(p.buf, '\n')
	if len(p.buf) >= flushAt {
		p.flush()
	}
}

func (p *printer) flush() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

func (p *printer) str(s string) { p.buf = append(p.buf, s...) }

func (p *printer) num(v int64) { p.buf = strconv.AppendInt(p.buf, v, 10) }

func (p *printer) model(sys *ta.System, query *mc.Goal) {
	p.str("system ")
	p.buf = appendSanitized(p.buf, sys.Name)
	p.str("\n")
	p.endLine()

	for _, name := range sys.Table.ConstNames() {
		v, _ := sys.Table.LookupConst(name)
		p.str("const ")
		p.str(name)
		p.str(" ")
		p.num(int64(v))
		p.endLine()
	}

	if names := sys.Table.Names(); len(names) > 0 {
		env := sys.Table.NewEnv() // the initial values
		for _, name := range names {
			p.str("int ")
			p.str(name)
			if v, ok := sys.Table.LookupVar(name); ok {
				p.str(" ")
				p.num(int64(env[v.Off]))
				p.endLine()
				continue
			}
			base, size, _ := sys.Table.LookupArray(name)
			p.str("[")
			p.num(int64(size))
			p.str("]")
			for i := 0; i < size; i++ {
				p.str(" ")
				p.num(int64(env[base+i]))
			}
			p.endLine()
		}
	}

	if sys.NumClocks() > 1 {
		p.str("clock")
		for i := 1; i < sys.NumClocks(); i++ {
			p.str(" ")
			p.str(sys.ClockName(i))
		}
		p.endLine()
	}

	p.channels(sys, false, "chan")
	p.channels(sys, true, "urgent chan")

	for _, a := range sys.Automata {
		p.automaton(sys, a)
	}

	if query != nil {
		p.query(sys, query)
	}
}

// channels writes the declaration line of the plain or the urgent
// channels, if there are any.
func (p *printer) channels(sys *ta.System, urgent bool, keyword string) {
	found := false
	for i := 0; i < sys.NumChannels(); i++ {
		ch := sys.Channel(i)
		if ch.Urgent != urgent {
			continue
		}
		if !found {
			p.str(keyword)
			found = true
		}
		p.str(" ")
		p.str(ch.Name)
	}
	if found {
		p.endLine()
	}
}

func (p *printer) automaton(sys *ta.System, a *ta.Automaton) {
	p.str("\nautomaton ")
	p.str(a.Name)
	p.str(" {")
	p.endLine()
	for li, l := range a.Locations {
		p.str("    ")
		if li == a.Init {
			p.str("init ")
		}
		switch l.Kind {
		case ta.Committed:
			p.str("committed ")
		case ta.Urgent:
			p.str("urgent ")
		}
		p.str("loc ")
		p.str(l.Name)
		if len(l.Invariant) > 0 {
			p.str(" { inv ")
			p.constraints(sys, l.Invariant)
			p.str(" }")
		}
		p.endLine()
	}
	for _, e := range a.Edges {
		p.str("    ")
		p.str(a.Locations[e.Src].Name)
		p.str(" -> ")
		p.str(a.Locations[e.Dst].Name)
		p.edgeLabel(sys, e)
		p.endLine()
	}
	p.str("}")
	p.endLine()
}

// edgeLabel writes an edge's " { guard …; sync …; do … }" clauses, or
// nothing when the edge has none.
func (p *printer) edgeLabel(sys *ta.System, e ta.Edge) {
	sep := " { "
	if len(e.ClockGuard) > 0 || e.IntGuard != nil {
		p.str(sep)
		sep = "; "
		p.str("guard ")
		p.constraints(sys, e.ClockGuard)
		if e.IntGuard != nil {
			if len(e.ClockGuard) > 0 {
				p.str(" && ")
			}
			p.buf = expr.Append(p.buf, e.IntGuard)
		}
	}
	if e.Dir != ta.NoSync {
		p.str(sep)
		sep = "; "
		p.str("sync ")
		p.str(sys.Channel(e.Chan).Name)
		if e.Dir == ta.Recv {
			p.str("?")
		} else {
			p.str("!")
		}
	}
	if len(e.Assigns) > 0 || len(e.Resets) > 0 {
		p.str(sep)
		sep = "; "
		p.str("do ")
		p.buf = expr.AppendAssigns(p.buf, e.Assigns)
		for i, r := range e.Resets {
			if i > 0 || len(e.Assigns) > 0 {
				p.str(", ")
			}
			p.str(sys.ClockName(r.Clock))
			p.str(" := ")
			p.num(int64(r.Value))
		}
	}
	if sep == "; " {
		p.str(" }")
	}
}

// constraints writes clock constraints in parseable form, joined by &&.
func (p *printer) constraints(sys *ta.System, cs []ta.ClockConstraint) {
	for i, c := range cs {
		if i > 0 {
			p.str(" && ")
		}
		op, gop := " < ", " > "
		if c.B.IsWeak() {
			op, gop = " <= ", " >= "
		}
		switch {
		case c.J == 0:
			p.str(sys.ClockName(c.I))
			p.str(op)
			p.num(int64(c.B.Value()))
		case c.I == 0:
			p.str(sys.ClockName(c.J))
			p.str(gop)
			p.num(int64(-c.B.Value()))
		default:
			p.str(sys.ClockName(c.I))
			p.str(" - ")
			p.str(sys.ClockName(c.J))
			p.str(op)
			p.num(int64(c.B.Value()))
		}
	}
}

func (p *printer) query(sys *ta.System, query *mc.Goal) {
	if !query.Deadlock && len(query.Locs) == 0 && query.Expr == nil {
		return
	}
	p.str("\nquery exists ")
	sep := ""
	if query.Deadlock {
		// Without this atom a pure-deadlock query serialized to nothing,
		// so its model hashed identically to the query-free model and
		// could alias a cached verdict in the serving layer.
		p.str("deadlock")
		sep = " && "
	}
	for _, lr := range query.Locs {
		a := sys.Automata[lr.Automaton]
		p.str(sep)
		sep = " && "
		p.str(a.Name)
		p.str(".")
		p.str(a.Locations[lr.Location].Name)
	}
	if query.Expr != nil {
		p.str(sep)
		p.buf = expr.Append(p.buf, query.Expr)
	}
	p.endLine()
}

// appendSanitized appends s with every rune outside [A-Za-z0-9_] replaced
// by '_', or "model" when s is empty.
func appendSanitized(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, "model"...)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			dst = append(dst, byte(r))
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}
