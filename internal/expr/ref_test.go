package expr

import (
	"fmt"
	"strings"
	"testing"
)

// stringRef is the fmt-based printer String used before Append: the
// reference the append printer must match byte for byte.
func stringRef(e Expr) string {
	switch e := e.(type) {
	case Const:
		if e.Name != "" {
			return e.Name
		}
		return fmt.Sprintf("%d", e.Val)
	case Var:
		return e.Name
	case Index:
		return fmt.Sprintf("%s[%s]", e.Name, stringRef(e.Idx))
	case Unary:
		return fmt.Sprintf("%s%s", e.Op, parenRef(e.X))
	case Binary:
		return fmt.Sprintf("%s %s %s", parenRef(e.L), e.Op, parenRef(e.R))
	case Cond:
		return fmt.Sprintf("(%s ? %s : %s)", stringRef(e.C), stringRef(e.T), stringRef(e.F))
	default:
		panic(fmt.Sprintf("stringRef: unexpected node %T", e))
	}
}

func parenRef(e Expr) string {
	switch e.(type) {
	case Const, Var, Index, Cond:
		return stringRef(e)
	default:
		return "(" + stringRef(e) + ")"
	}
}

// formatAssignsRef is the fmt-based FormatAssigns used before AppendAssigns.
func formatAssignsRef(as []Assign) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = fmt.Sprintf("%s := %s", stringRef(a.LHS.(Expr)), stringRef(a.RHS))
	}
	return strings.Join(parts, ", ")
}

// refCorpus covers every node type, each operator, named and negative
// constants, and unary operators over compound operands.
var refCorpus = []string{
	"0", "42", "-7", "N", "v", "pos[0]", "pos[v + 1]", "pos[pos[id]]",
	"-v", "-(v + 1)", "!(id == 0)", "!!v", "-(-v)", "!(v < N) || -pos[1] > 2",
	"v + 1 - 2 * id / 3 % 4", "(v + 1) * (id - 2)", "(v == 1) != (id < 2)",
	"v <= 1 && id >= 2 || v > 3 && id < 4",
	"v ? 1 : 2", "(v < 2 ? pos[0] : pos[1]) + 1", "v ? (id ? 1 : 2) : -(3 + N)",
	"pos[0] + pos[1] + pos[2] <= pos[3] + N ? id : v",
	"-2147483647", "2147483647",
}

var refAssignCorpus = []string{
	"v := 1", "v := v + 1, id := 1 - id", "pos[v] := 0, pos[(v + 1) % N] := -v",
	"id := (v < 2 ? pos[0] : pos[1]), v := !(id == 0)",
}

func TestAppendMatchesStringRef(t *testing.T) {
	tab := fuzzTable()
	for _, src := range refCorpus {
		e, err := Parse(src, tab)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got, want := e.String(), stringRef(e); got != want {
			t.Errorf("%q: String() = %q, reference %q", src, got, want)
		}
		if got, want := string(Append([]byte("x"), e)), "x"+stringRef(e); got != want {
			t.Errorf("%q: Append onto a prefix = %q, want %q", src, got, want)
		}
	}
	for _, src := range refAssignCorpus {
		as, err := ParseAssignList(src, tab)
		if err != nil {
			t.Fatalf("ParseAssignList(%q): %v", src, err)
		}
		if got, want := FormatAssigns(as), formatAssignsRef(as); got != want {
			t.Errorf("%q: FormatAssigns = %q, reference %q", src, got, want)
		}
		for _, a := range as {
			if got, want := a.String(), formatAssignsRef([]Assign{a}); got != want {
				t.Errorf("%q: Assign.String = %q, reference %q", src, got, want)
			}
		}
	}
}

// Hand-built trees reach shapes the parser folds or never produces:
// unnamed negative constants and unary operators over every node type.
func TestAppendMatchesStringRefBuilt(t *testing.T) {
	v := Var{Name: "v"}
	ix := Index{Name: "a", Size: 4, Idx: Binary{Op: OpAdd, L: v, R: Const{Val: 1}}}
	cond := Cond{C: v, T: Const{Val: -3}, F: Const{Val: 2, Name: "TWO"}}
	bin := Binary{Op: OpMul, L: Unary{Op: OpNeg, X: v}, R: cond}
	nodes := []Expr{
		Const{Val: -5}, v, ix, cond, bin,
		Unary{Op: OpNot, X: bin}, Unary{Op: OpNeg, X: Unary{Op: OpNeg, X: ix}},
		Binary{Op: OpOr, L: Unary{Op: OpNot, X: cond}, R: Binary{Op: OpGe, L: ix, R: bin}},
	}
	for _, e := range nodes {
		if got, want := e.String(), stringRef(e); got != want {
			t.Errorf("String() = %q, reference %q", got, want)
		}
	}
}
