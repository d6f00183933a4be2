package tadsl_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/tadsl"
)

// FuzzParse feeds arbitrary text through the full Parse → Write → Parse
// round trip. Contract: Parse never panics (malformed input is a parse
// error — a panic here would take down mcserved), and any model that
// parses serializes to a form that reparses to the identical canonical
// text (so tadsl.Hash is a sound cache key), byte for byte the text of the
// fmt-based reference writer (so no digest moved with the printer).
func FuzzParse(f *testing.F) {
	dir := filepath.Join("..", "..", "examples", "models")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading seed corpus: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".gta") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading %s: %v", e.Name(), err)
		}
		f.Add(string(src))
	}
	// Directed seeds for the paths that used to panic or mis-serialize:
	// duplicate declarations, hostile array sizes, and deadlock queries.
	f.Add("clock x x\nautomaton A {\n init loc a\n}\n")
	f.Add("chan c\nurgent chan c\nautomaton A {\n init loc a\n}\n")
	f.Add("const N 1\nint N 2\nautomaton A {\n init loc a\n}\n")
	f.Add("int a[2000000000]\nautomaton A {\n init loc a\n}\n")
	f.Add("int v 0\nautomaton A {\n init loc a\n a -> a { guard v < 3; do v := v + 1 }\n}\nquery exists deadlock\n")
	f.Add("clock x\nautomaton A {\n init loc a { inv x <= 3 }\n urgent loc b\n a -> b { guard x >= 1; do x := 0 }\n}\nquery exists A.b && deadlock\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := tadsl.Parse(src)
		if err != nil {
			return
		}
		var q *mc.Goal
		if m.HasQuery {
			q = &m.Query
		}
		var w1 strings.Builder
		if err := tadsl.Write(&w1, m.Sys, q); err != nil {
			t.Fatalf("Write failed on parsed model: %v", err)
		}
		if ref := writeRef(m.Sys, q); w1.String() != ref {
			t.Fatalf("Write differs from the reference writer\n--- Write ---\n%s--- reference ---\n%s", w1.String(), ref)
		}
		m2, err := tadsl.Parse(w1.String())
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n--- canonical ---\n%s--- input ---\n%s", err, w1.String(), src)
		}
		var q2 *mc.Goal
		if m2.HasQuery {
			q2 = &m2.Query
		}
		var w2 strings.Builder
		if err := tadsl.Write(&w2, m2.Sys, q2); err != nil {
			t.Fatalf("Write failed on reparsed model: %v", err)
		}
		if w1.String() != w2.String() {
			t.Fatalf("canonical form is not a fixed point\n--- first ---\n%s--- second ---\n%s", w1.String(), w2.String())
		}
	})
}

// The parser must reject redeclarations with an error on every namespace;
// before the checkFresh guard these reached the builders' panics.
func TestParseRejectsDuplicateDeclarations(t *testing.T) {
	body := "\nautomaton A {\n init loc a\n}\n"
	cases := []struct{ name, src string }{
		{"clock-clock", "clock x x" + body},
		{"clock-two-lines", "clock x\nclock x" + body},
		{"chan-chan", "chan c c" + body},
		{"chan-urgent", "chan c\nurgent chan c" + body},
		{"const-const", "const N 1\nconst N 2" + body},
		{"var-var", "int v 0\nint v 1" + body},
		{"var-array", "int v 0\nint v[3]" + body},
		{"const-var", "const N 1\nint N 0" + body},
		{"clock-var", "clock x\nint x 0" + body},
		{"chan-clock", "chan c\nclock c" + body},
		{"array-too-big", "int a[1000000000]" + body},
		{"dup-automaton", "automaton A {\n init loc a\n}\nautomaton A {\n init loc a\n}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tadsl.Parse(tc.src); err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
		})
	}
}

// A pure-deadlock query must survive the Write round trip and change the
// model hash; before the fix it serialized to nothing and hash-aliased
// the query-free model (a wrong-verdict cache hit waiting to happen).
func TestWriteSerializesDeadlockQuery(t *testing.T) {
	src := "int v 0\nautomaton A {\n init loc a\n a -> a { guard v < 1; do v := v + 1 }\n}\nquery exists deadlock\n"
	m, err := tadsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Query.Deadlock {
		t.Fatal("query did not parse as a deadlock goal")
	}
	var buf strings.Builder
	if err := tadsl.Write(&buf, m.Sys, &m.Query); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "query exists deadlock") {
		t.Fatalf("deadlock query lost in serialization:\n%s", buf.String())
	}
	m2, err := tadsl.Parse(buf.String())
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v\n%s", err, buf.String())
	}
	if !m2.Query.Deadlock {
		t.Fatal("deadlock flag lost in round trip")
	}

	withQuery, err := tadsl.Hash(m.Sys, &m.Query)
	if err != nil {
		t.Fatal(err)
	}
	without, err := tadsl.Hash(m.Sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withQuery == without {
		t.Fatal("deadlock query does not change the model hash")
	}
}
