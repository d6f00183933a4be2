package dbm

import (
	"math/rand"
	"testing"
)

// inflateFullClose is InflateInto re-canonicalizing with the full Close:
// the reference for the pivot-restricted closure.
func inflateFullClose(c *Compact, d *DBM) bool {
	n := c.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 || i == j {
				d.m[i*n+j] = LEZero
			} else {
				d.m[i*n+j] = Infinity
			}
		}
	}
	for _, cc := range c.cs {
		if at := int(cc.I)*n + int(cc.J); cc.B < d.m[at] {
			d.m[at] = cc.B
		}
	}
	return d.Close()
}

// Property: the pivot-restricted closure used by InflateInto is exact. On
// minimal forms, inflating gives back the zone itself, an oracle that needs
// no Close at all; on arbitrary constraint lists (which may be empty or
// redundant) it agrees with the full-Close reference on emptiness and on
// the matrix.
func TestInflateIntoPartialAgreesWithFullClose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var empties int
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(5)
		got, want := New(n), New(n)
		if trial%2 == 0 {
			z := randomZone(rng, n)
			if !z.Minimal().InflateInto(got) || !got.Equal(z) {
				t.Fatalf("trial %d: inflating the minimal form does not give the zone back\nzone: %s\ngot:  %s", trial, z, got)
			}
			continue
		}
		c := &Compact{n: n}
		for k := rng.Intn(2 * n); k >= 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				c.cs = append(c.cs, Constraint{uint16(i), uint16(j), randomBound(rng, -8, 12)})
			}
		}
		okGot, okWant := c.InflateInto(got), inflateFullClose(c, want)
		if okGot != okWant {
			t.Fatalf("trial %d: emptiness disagrees: partial=%v full=%v", trial, okGot, okWant)
		}
		if !okWant {
			empties++
		} else if !got.Equal(want) {
			t.Fatalf("trial %d: partial inflate diverges\npartial: %s\nfull:    %s", trial, got, want)
		}
	}
	if empties == 0 {
		t.Fatal("vacuous: no constraint list was empty")
	}
}

// The empty-zone sentinel (x0 - x0 < 0) must inflate to an empty zone
// under the pivot-restricted closure too.
func TestInflateIntoPartialEmptySentinel(t *testing.T) {
	empty := Zero(3)
	empty.markEmpty()
	c := empty.Minimal()
	d := New(3)
	if c.InflateInto(d) || !d.IsEmpty() {
		t.Fatalf("empty sentinel inflated to non-empty zone: %s", d)
	}
}

// Property: closeAfterRaise is exact — raising an arbitrary set of entries
// of a canonical zone (to looser bounds, confined to the touched rows) and
// partially re-closing yields the same matrix as a full Close.
func TestCloseAfterRaiseAgreesWithFullClose(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(5)
		d := randomZone(rng, n)
		s := getRaiseScratch(n)
		raises := 1 + rng.Intn(2*n)
		for r := 0; r < raises; r++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			b := d.m[i*n+j]
			if b == Infinity {
				continue
			}
			// Loosen: either all the way to Infinity or by a positive amount.
			if rng.Intn(3) == 0 {
				d.m[i*n+j] = Infinity
			} else {
				d.m[i*n+j] = Add(b, LE(int32(1+rng.Intn(10))))
			}
			s.mark(i)
		}
		ref := d.Clone()
		d.closeAfterRaise(s.touched, s.rows)
		putRaiseScratch(s)
		if !ref.Close() {
			t.Fatalf("trial %d: raise emptied the zone", trial)
		}
		if !d.Equal(ref) {
			t.Fatalf("trial %d: closeAfterRaise diverges\npartial: %s\nfull:    %s", trial, d, ref)
		}
	}
}

// extrapolateMaxBoundsRef is ExtrapolateMaxBounds rewriting every entry
// in place and re-closing with the full Close.
func extrapolateMaxBoundsRef(d *DBM, max []int32) bool {
	if d.IsEmpty() {
		return false
	}
	n := d.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := d.m[i*n+j]
			if i == j || b == Infinity {
				continue
			}
			v := int64(b.Value())
			switch {
			case i == 0 && max[j] < 0 && b < LEZero:
				d.m[j] = LEZero
			case i == 0:
				if max[j] >= 0 && v < int64(-max[j]) {
					d.m[j] = LT(-max[j])
				}
			case max[i] < 0 || v > int64(max[i]):
				d.m[i*n+j] = Infinity
			case max[j] >= 0 && v < int64(-max[j]):
				d.m[i*n+j] = LT(-max[j])
			}
		}
	}
	return d.Close()
}

// Property: both extrapolation operators, with their partial re-close,
// agree with the entry rewrites followed by a full Close.
func TestExtrapolatePartialAgreesWithFullClose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(5)
		d := randomZone(rng, n)
		maxB := make([]int32, n)
		lower := make([]int32, n)
		upper := make([]int32, n)
		for i := 1; i < n; i++ {
			maxB[i] = int32(rng.Intn(12)) - 2 // occasionally negative ("never compared")
			lower[i] = int32(rng.Intn(12)) - 2
			upper[i] = int32(rng.Intn(12)) - 2
		}
		a, b := d.Clone(), d.Clone()
		okA := a.ExtrapolateMaxBounds(maxB)
		okB := extrapolateMaxBoundsRef(b, maxB)
		if okA != okB || (okA && !a.Equal(b)) {
			t.Fatalf("trial %d: ExtrapolateMaxBounds diverges\npartial: %s\nfull:    %s", trial, a, b)
		}
		a, b = d.Clone(), d.Clone()
		okA = a.ExtrapolateLU(lower, upper)
		okB = extrapolateLURef(b, lower, upper, true)
		if okA != okB || (okA && !a.Equal(b)) {
			t.Fatalf("trial %d: ExtrapolateLU diverges\npartial: %s\nfull:    %s", trial, a, b)
		}
	}
}

// Reducer.Minimal must be bit-identical to DBM.Minimal (constraints and
// order), including across reuse of the same reducer.
func TestReducerMatchesMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var r Reducer
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(5)
		d := randomZone(rng, n)
		a, b := d.Minimal(), r.Minimal(d)
		if !a.Equal(b) {
			t.Fatalf("trial %d: Reducer.Minimal diverges from DBM.Minimal", trial)
		}
	}
}

// Property: the RowMask gate is a sound necessary condition — whenever
// RowMask(new) ⊄ RowMask(old), old's zone must NOT be a subset of new's.
// (A column analogue of the gate is unsound because of the implied base
// edges; this test caught exactly that bug when run over enough pairs.)
func TestRowMaskGateIsNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dist := make([]Bound, 6*6)
	for trial := 0; trial < 4000; trial++ {
		oldZ, newZ := loosenedPair(rng, 2+rng.Intn(5), randomZone)
		cOld, cNew := oldZ.Minimal(), newZ.Minimal()
		gateAllows := cNew.RowMask()&^cOld.RowMask() == 0
		subset := cOld.SubsetOf(newZ, cNew, dist)
		if subset && !gateAllows {
			t.Fatalf("trial %d: gate rejected a real subset\nold: %s\nnew: %s", trial, oldZ, newZ)
		}
	}
}

// loosenedPair draws a zone and either an unrelated zone (a mostly-disjoint
// pair) or a loosening of the first, so real subsets are frequent — the
// eviction test's behavior matters most on (near-)subset pairs.
func loosenedPair(rng *rand.Rand, n int, gen func(*rand.Rand, int) *DBM) (oldZ, newZ *DBM) {
	oldZ = gen(rng, n)
	if rng.Intn(2) == 0 {
		return oldZ, gen(rng, n)
	}
	newZ = oldZ.Clone()
	switch rng.Intn(3) {
	case 0:
		newZ.Up()
	case 1:
		newZ.FreeClock(1 + rng.Intn(n-1))
	case 2:
		maxB := make([]int32, n)
		for i := 1; i < n; i++ {
			maxB[i] = int32(rng.Intn(6)) - 1
		}
		newZ.ExtrapolateMaxBounds(maxB)
	}
	return oldZ, newZ
}

// Arena-produced DBMs must behave exactly like heap-allocated ones once
// initialized, and distinct Gets must never alias.
func TestArenaZonesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewArena(4)
	var zones []*DBM
	var refs []*DBM
	for k := 0; k < 3*arenaChunk+5; k++ {
		src := randomZone(rng, 4)
		z := a.Get()
		z.CopyFrom(src)
		zones = append(zones, z)
		refs = append(refs, src)
	}
	for k, z := range zones {
		if !z.Equal(refs[k]) {
			t.Fatalf("zone %d mutated by later arena use", k)
		}
	}
}
