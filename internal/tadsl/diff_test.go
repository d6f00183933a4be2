// The differential tests live in package tadsl_test because their random
// models come from internal/fuzz, which imports tadsl.

package tadsl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guidedta/internal/fuzz"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// assertMatchesRef checks Write and Hash against the fmt-based reference
// writer on one model.
func assertMatchesRef(t *testing.T, name string, sys *ta.System, goal *mc.Goal) {
	t.Helper()
	var buf bytes.Buffer
	if err := tadsl.Write(&buf, sys, goal); err != nil {
		t.Fatalf("%s: Write: %v", name, err)
	}
	if ref := writeRef(sys, goal); buf.String() != ref {
		t.Fatalf("%s: Write differs from the reference writer at byte %d\n--- Write ---\n%s--- reference ---\n%s",
			name, firstDiff(buf.String(), ref), buf.String(), ref)
	}
	h, err := tadsl.Hash(sys, goal)
	if err != nil {
		t.Fatalf("%s: Hash: %v", name, err)
	}
	if ref := hashRef(sys, goal); h != ref {
		t.Fatalf("%s: Hash = %s, reference %s", name, h, ref)
	}
}

func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func TestWriteMatchesRefOnExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.gta"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example models found (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tadsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertMatchesRef(t, path, m.Sys, &m.Query)
		assertMatchesRef(t, path+" without query", m.Sys, nil)
	}
}

// driftedParams is a re-measured plant: every duration moved, as after
// the battery wear of the paper's Section 6.
func driftedParams() plant.Params {
	p := plant.DefaultParams()
	p.BMove, p.CMove, p.CUp, p.CDown = 3, 2, 2, 2
	p.TreatA, p.TreatB, p.TreatM3 = 5, 7, 4
	p.CastTime, p.TurnTime, p.Deadline = 11, 0, 120
	return p
}

func TestWriteMatchesRefOnPlants(t *testing.T) {
	for batches := 1; batches <= 5; batches++ {
		for _, g := range []plant.GuideLevel{plant.NoGuides, plant.SomeGuides, plant.AllGuides} {
			for _, params := range []plant.Params{plant.DefaultParams(), driftedParams()} {
				p, err := plant.Build(plant.Config{
					Qualities: plant.CycleQualities(batches),
					Guides:    g,
					Params:    params,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesRef(t, fmt.Sprintf("%d batches, %v guides, %+v", batches, g, params), p.Sys, &p.Goal)
			}
		}
	}
}

func TestWriteMatchesRefOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		sys, goal, err := fuzz.Generate(rng, fuzz.DefaultGenConfig()).Build()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		assertMatchesRef(t, fmt.Sprintf("spec %d", i), sys, &goal)
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	got    bytes.Buffer
	writes int // calls made after the first failure
	failed bool
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.writes++
	}
	if room := f.n - f.got.Len(); len(p) > room {
		f.got.Write(p[:room])
		f.failed = true
		return room, errDiskFull
	}
	return f.got.Write(p)
}

// Write reports the writer's first error, stops writing after it, and
// has written a prefix of the canonical text up to it.
func TestWriteReturnsWriterError(t *testing.T) {
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides})
	if err != nil {
		t.Fatal(err)
	}
	full := writeRef(p.Sys, &p.Goal)
	for _, n := range []int{0, 1, 100, 4 << 10, 10000, len(full) - 1} {
		w := &failAfter{n: n}
		if err := tadsl.Write(w, p.Sys, &p.Goal); !errors.Is(err, errDiskFull) {
			t.Errorf("fail after %d bytes: Write returned %v, want %v", n, err, errDiskFull)
		}
		if w.writes != 0 {
			t.Errorf("fail after %d bytes: %d writes after the failure", n, w.writes)
		}
		if !strings.HasPrefix(full, w.got.String()) || w.got.Len() != n {
			t.Errorf("fail after %d bytes: wrote %d bytes, not a prefix of the canonical text", n, w.got.Len())
		}
	}
	w := &failAfter{n: len(full)}
	if err := tadsl.Write(w, p.Sys, &p.Goal); err != nil || w.got.String() != full {
		t.Errorf("writer with exactly enough room: err %v, %d of %d bytes", err, w.got.Len(), len(full))
	}
}

// benchPlant is the 3-batch all-guides plant the serving benchmark
// re-synthesizes.
func benchPlant(b *testing.B) *plant.Plant {
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// digestSink keeps the benchmarked digests live.
var digestSink string

func BenchmarkHash(b *testing.B) {
	p := benchPlant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := tadsl.Hash(p.Sys, &p.Goal)
		if err != nil {
			b.Fatal(err)
		}
		digestSink = h
	}
}

// BenchmarkHashRef is BenchmarkHash over the fmt-based reference writer.
func BenchmarkHashRef(b *testing.B) {
	p := benchPlant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = hashRef(p.Sys, &p.Goal)
	}
}
