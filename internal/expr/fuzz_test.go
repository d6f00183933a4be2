package expr

import (
	"strings"
	"testing"
)

// Deeply nested input must be rejected with a parse error; before the
// depth cap it overflowed the goroutine stack, which is a fatal,
// unrecoverable crash (found by FuzzExpr).
func TestParseDepthLimit(t *testing.T) {
	tab := fuzzTable()
	deep := strings.Repeat("(", 500) + "v" + strings.Repeat(")", 500)
	if _, err := Parse(deep, tab); err == nil {
		t.Fatal("Parse accepted 500-deep nesting")
	}
	if _, err := Parse(strings.Repeat("-", 500)+"v", tab); err == nil {
		t.Fatal("Parse accepted 500-long unary chain")
	}
	// Wide (non-nested) expressions stay unaffected by the cap.
	wide := "v" + strings.Repeat(" + v", 500)
	if _, err := Parse(wide, tab); err != nil {
		t.Fatalf("Parse rejected wide expression: %v", err)
	}
}

// evalChecked evaluates e, converting the documented *RuntimeError panics
// (division by zero, array index out of range) into a flag; any other
// panic propagates and fails the fuzz run.
func evalChecked(e Expr, env []int32) (v int32, rtErr bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*RuntimeError); ok {
				rtErr = true
				return
			}
			panic(r)
		}
	}()
	return e.Eval(env), false
}

func fuzzTable() *Table {
	t := &Table{}
	t.DefineConst("N", 4)
	t.DeclareVar("id", 0)
	t.DeclareVar("v", 2)
	t.DeclareArray("pos", 4, 1, 0, 3)
	return t
}

// FuzzExpr feeds arbitrary text through Parse. Contract: parsing never
// panics, a successfully parsed expression's String() form matches the
// fmt-based reference printer byte for byte, and it reparses to an
// expression with identical evaluation behavior.
func FuzzExpr(f *testing.F) {
	// Seeds drawn from the guards and updates of examples/models/*.gta.
	for _, s := range []string{
		"id == 0", "id == 1 && pos[0] == 1", "v < N",
		"pos[v] == pos[(v + 1) % N]", "(v + 1) % 4", "-v + 2 * id",
		"v / id", "pos[id - 1]", "!(id == 0) || v >= 2",
		"v := v + 1", "pos[v] := 0, id := 1 - id",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tab := fuzzTable()
		env := tab.NewEnv()
		if e, err := Parse(src, tab); err == nil {
			s := e.String()
			if ref := stringRef(e); s != ref {
				t.Fatalf("String() of %q = %q, reference printer %q", src, s, ref)
			}
			e2, err := Parse(s, tab)
			if err != nil {
				t.Fatalf("String round-trip: %q -> %q: %v", src, s, err)
			}
			v1, p1 := evalChecked(e, env)
			v2, p2 := evalChecked(e2, env)
			if p1 != p2 || (!p1 && v1 != v2) {
				t.Fatalf("eval mismatch after round-trip: %q=%d(rt=%v) vs %q=%d(rt=%v)", src, v1, p1, s, v2, p2)
			}
		}
		if as, err := ParseAssignList(src, tab); err == nil && len(as) > 0 {
			s := FormatAssigns(as)
			if ref := formatAssignsRef(as); s != ref {
				t.Fatalf("FormatAssigns of %q = %q, reference printer %q", src, s, ref)
			}
			if _, err := ParseAssignList(s, tab); err != nil {
				t.Fatalf("assign round-trip: %q -> %q: %v", src, s, err)
			}
		}
	})
}
