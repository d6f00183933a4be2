package tadsl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// writeRef returns the text of the fmt-based tadsl.Write used before the
// append printer: the reference the printer must match byte for byte,
// since every model digest (cache keys, checkpoint names, report hashes)
// is taken over it.
func writeRef(sys *ta.System, query *mc.Goal) string {
	var sb strings.Builder
	fprintRef(&sb, sys, query)
	return sb.String()
}

// hashRef is tadsl.Hash over the reference writer.
func hashRef(sys *ta.System, query *mc.Goal) string {
	h := sha256.New()
	fprintRef(h, sys, query)
	return hex.EncodeToString(h.Sum(nil))
}

func fprintRef(w io.Writer, sys *ta.System, query *mc.Goal) {
	fmt.Fprintf(w, "system %s\n\n", sanitizeNameRef(sys.Name))

	for _, name := range sys.Table.ConstNames() {
		v, _ := sys.Table.LookupConst(name)
		fmt.Fprintf(w, "const %s %d\n", name, v)
	}

	if names := sys.Table.Names(); len(names) > 0 {
		env := sys.Table.NewEnv()
		for _, name := range names {
			if v, ok := sys.Table.LookupVar(name); ok {
				fmt.Fprintf(w, "int %s %d\n", name, env[v.Off])
				continue
			}
			base, size, _ := sys.Table.LookupArray(name)
			fmt.Fprintf(w, "int %s[%d]", name, size)
			for i := 0; i < size; i++ {
				fmt.Fprintf(w, " %d", env[base+i])
			}
			fmt.Fprintln(w)
		}
	}

	if sys.NumClocks() > 1 {
		fmt.Fprint(w, "clock")
		for i := 1; i < sys.NumClocks(); i++ {
			fmt.Fprintf(w, " %s", sys.ClockName(i))
		}
		fmt.Fprintln(w)
	}

	var plain, urgent []string
	for i := 0; i < sys.NumChannels(); i++ {
		ch := sys.Channel(i)
		if ch.Urgent {
			urgent = append(urgent, ch.Name)
		} else {
			plain = append(plain, ch.Name)
		}
	}
	if len(plain) > 0 {
		fmt.Fprintf(w, "chan %s\n", strings.Join(plain, " "))
	}
	if len(urgent) > 0 {
		fmt.Fprintf(w, "urgent chan %s\n", strings.Join(urgent, " "))
	}

	for _, a := range sys.Automata {
		fmt.Fprintf(w, "\nautomaton %s {\n", a.Name)
		for li, l := range a.Locations {
			var prefix string
			if li == a.Init {
				prefix = "init "
			}
			switch l.Kind {
			case ta.Committed:
				prefix += "committed "
			case ta.Urgent:
				prefix += "urgent "
			}
			fmt.Fprintf(w, "    %sloc %s", prefix, l.Name)
			if len(l.Invariant) > 0 {
				fmt.Fprintf(w, " { inv %s }", formatConstraintsRef(sys, l.Invariant))
			}
			fmt.Fprintln(w)
		}
		for _, e := range a.Edges {
			fmt.Fprintf(w, "    %s -> %s", a.Locations[e.Src].Name, a.Locations[e.Dst].Name)
			var clauses []string
			guard := formatGuardRef(sys, e)
			if guard != "" {
				clauses = append(clauses, "guard "+guard)
			}
			if e.Dir != ta.NoSync {
				mark := "!"
				if e.Dir == ta.Recv {
					mark = "?"
				}
				clauses = append(clauses, "sync "+sys.Channel(e.Chan).Name+mark)
			}
			if du := formatUpdateRef(sys, e); du != "" {
				clauses = append(clauses, "do "+du)
			}
			if len(clauses) > 0 {
				fmt.Fprintf(w, " { %s }", strings.Join(clauses, "; "))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "}")
	}

	if query != nil {
		var atoms []string
		if query.Deadlock {
			atoms = append(atoms, "deadlock")
		}
		for _, lr := range query.Locs {
			a := sys.Automata[lr.Automaton]
			atoms = append(atoms, fmt.Sprintf("%s.%s", a.Name, a.Locations[lr.Location].Name))
		}
		if query.Expr != nil {
			atoms = append(atoms, exprRef(query.Expr))
		}
		if len(atoms) > 0 {
			fmt.Fprintf(w, "\nquery exists %s\n", strings.Join(atoms, " && "))
		}
	}
}

func sanitizeNameRef(s string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
	if out == "" {
		return "model"
	}
	return out
}

func formatConstraintsRef(sys *ta.System, cs []ta.ClockConstraint) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		op := "<"
		if c.B.IsWeak() {
			op = "<="
		}
		switch {
		case c.J == 0:
			parts[i] = fmt.Sprintf("%s %s %d", sys.ClockName(c.I), op, c.B.Value())
		case c.I == 0:
			gop := ">"
			if c.B.IsWeak() {
				gop = ">="
			}
			parts[i] = fmt.Sprintf("%s %s %d", sys.ClockName(c.J), gop, -c.B.Value())
		default:
			parts[i] = fmt.Sprintf("%s - %s %s %d", sys.ClockName(c.I), sys.ClockName(c.J), op, c.B.Value())
		}
	}
	return strings.Join(parts, " && ")
}

func formatGuardRef(sys *ta.System, e ta.Edge) string {
	var parts []string
	if len(e.ClockGuard) > 0 {
		parts = append(parts, formatConstraintsRef(sys, e.ClockGuard))
	}
	if e.IntGuard != nil {
		parts = append(parts, exprRef(e.IntGuard))
	}
	return strings.Join(parts, " && ")
}

func formatUpdateRef(sys *ta.System, e ta.Edge) string {
	var parts []string
	for _, a := range e.Assigns {
		parts = append(parts, fmt.Sprintf("%s := %s", exprRef(a.LHS.(expr.Expr)), exprRef(a.RHS)))
	}
	for _, r := range e.Resets {
		parts = append(parts, fmt.Sprintf("%s := %d", sys.ClockName(r.Clock), r.Value))
	}
	return strings.Join(parts, ", ")
}

// exprRef is the fmt-based expression printer the writer used before
// expr.Append; it mirrors stringRef in internal/expr's tests, so the
// reference writer owes nothing to the printer under test.
func exprRef(e expr.Expr) string {
	switch e := e.(type) {
	case expr.Const:
		if e.Name != "" {
			return e.Name
		}
		return fmt.Sprintf("%d", e.Val)
	case expr.Var:
		return e.Name
	case expr.Index:
		return fmt.Sprintf("%s[%s]", e.Name, exprRef(e.Idx))
	case expr.Unary:
		return fmt.Sprintf("%s%s", e.Op, parenRef(e.X))
	case expr.Binary:
		return fmt.Sprintf("%s %s %s", parenRef(e.L), e.Op, parenRef(e.R))
	case expr.Cond:
		return fmt.Sprintf("(%s ? %s : %s)", exprRef(e.C), exprRef(e.T), exprRef(e.F))
	default:
		panic(fmt.Sprintf("exprRef: unexpected node %T", e))
	}
}

func parenRef(e expr.Expr) string {
	switch e.(type) {
	case expr.Const, expr.Var, expr.Index, expr.Cond:
		return exprRef(e)
	default:
		return "(" + exprRef(e) + ")"
	}
}
