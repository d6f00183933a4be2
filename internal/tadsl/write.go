package tadsl

import (
	"fmt"
	"io"
	"strings"

	"guidedta/internal/expr"
	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// Write renders a system (and optional query) in the tadsl format, such
// that Parse(Write(m)) reconstructs an equivalent model.
func Write(w io.Writer, sys *ta.System, query *mc.Goal) error {
	fmt.Fprintf(w, "system %s\n\n", sanitizeName(sys.Name))

	for _, name := range sys.Table.ConstNames() {
		v, _ := sys.Table.LookupConst(name)
		fmt.Fprintf(w, "const %s %d\n", name, v)
	}

	if names := sys.Table.Names(); len(names) > 0 {
		env := sys.Table.NewEnv() // the initial values
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
				fmt.Fprintf(w, " { inv %s }", formatConstraints(sys, l.Invariant))
			}
			fmt.Fprintln(w)
		}
		for _, e := range a.Edges {
			fmt.Fprintf(w, "    %s -> %s", a.Locations[e.Src].Name, a.Locations[e.Dst].Name)
			var clauses []string
			guard := formatGuard(sys, e)
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
			if du := formatUpdate(sys, e); du != "" {
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
			// Without this atom a pure-deadlock query serialized to nothing,
			// so its model hashed identically to the query-free model and
			// could alias a cached verdict in the serving layer.
			atoms = append(atoms, "deadlock")
		}
		for _, lr := range query.Locs {
			a := sys.Automata[lr.Automaton]
			atoms = append(atoms, fmt.Sprintf("%s.%s", a.Name, a.Locations[lr.Location].Name))
		}
		if query.Expr != nil {
			atoms = append(atoms, query.Expr.String())
		}
		if len(atoms) > 0 {
			fmt.Fprintf(w, "\nquery exists %s\n", strings.Join(atoms, " && "))
		}
	}
	return nil
}

func sanitizeName(s string) string {
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

// formatConstraints renders clock constraints in parseable form.
func formatConstraints(sys *ta.System, cs []ta.ClockConstraint) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = formatConstraint(sys, c)
	}
	return strings.Join(parts, " && ")
}

func formatConstraint(sys *ta.System, c ta.ClockConstraint) string {
	op := "<"
	if c.B.IsWeak() {
		op = "<="
	}
	switch {
	case c.J == 0:
		return fmt.Sprintf("%s %s %d", sys.ClockName(c.I), op, c.B.Value())
	case c.I == 0:
		gop := ">"
		if c.B.IsWeak() {
			gop = ">="
		}
		return fmt.Sprintf("%s %s %d", sys.ClockName(c.J), gop, -c.B.Value())
	default:
		return fmt.Sprintf("%s - %s %s %d", sys.ClockName(c.I), sys.ClockName(c.J), op, c.B.Value())
	}
}

func formatGuard(sys *ta.System, e ta.Edge) string {
	var parts []string
	if len(e.ClockGuard) > 0 {
		parts = append(parts, formatConstraints(sys, e.ClockGuard))
	}
	if e.IntGuard != nil {
		parts = append(parts, e.IntGuard.String())
	}
	return strings.Join(parts, " && ")
}

func formatUpdate(sys *ta.System, e ta.Edge) string {
	var parts []string
	if len(e.Assigns) > 0 {
		parts = append(parts, expr.FormatAssigns(e.Assigns))
	}
	for _, r := range e.Resets {
		parts = append(parts, fmt.Sprintf("%s := %d", sys.ClockName(r.Clock), r.Value))
	}
	return strings.Join(parts, ", ")
}
