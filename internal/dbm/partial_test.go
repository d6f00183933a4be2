package dbm

import (
	"math/rand"
	"testing"
)

// Property: the pivot-restricted closure used by InflateInto agrees with
// the full Close — same emptiness verdict, same matrix — whenever the
// pivot mask covers every vertex with outgoing finite edges. Exercised
// through the public API: InflateInto with partial close enabled vs.
// disabled over random minimal forms.
func TestInflateIntoPartialAgreesWithFullClose(t *testing.T) {
	defer SetPartialClose(true)
	rng := rand.New(rand.NewSource(11))
	fast, full := New(6), New(6)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(5)
		if fast.Dim() != n {
			fast, full = New(n), New(n)
		}
		c := randomZone(rng, n).Minimal()
		SetPartialClose(true)
		okFast := c.InflateInto(fast)
		SetPartialClose(false)
		okFull := c.InflateInto(full)
		if okFast != okFull {
			t.Fatalf("trial %d: emptiness disagrees: partial=%v full=%v", trial, okFast, okFull)
		}
		if okFast && !fast.Equal(full) {
			t.Fatalf("trial %d: partial inflate diverges\npartial: %s\nfull:    %s", trial, fast, full)
		}
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

// Property: both extrapolation operators produce identical results with
// partial re-canonicalization enabled and disabled.
func TestExtrapolatePartialAgreesWithFullClose(t *testing.T) {
	defer SetPartialClose(true)
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
		SetPartialClose(true)
		okA := a.ExtrapolateMaxBounds(maxB)
		SetPartialClose(false)
		okB := b.ExtrapolateMaxBounds(maxB)
		if okA != okB || (okA && !a.Equal(b)) {
			t.Fatalf("trial %d: ExtrapolateMaxBounds diverges\npartial: %s\nfull:    %s", trial, a, b)
		}
		a, b = d.Clone(), d.Clone()
		SetPartialClose(true)
		okA = a.ExtrapolateLU(lower, upper)
		SetPartialClose(false)
		okB = b.ExtrapolateLU(lower, upper)
		if okA != okB || (okA && !a.Equal(b)) {
			t.Fatalf("trial %d: ExtrapolateLU diverges\npartial: %s\nfull:    %s", trial, a, b)
		}
	}
}

// The assertion mode must pass silently on correct partial closes (it
// panics on divergence, so surviving a workload is the assertion).
func TestPartialCloseCheckMode(t *testing.T) {
	defer SetPartialCloseCheck(false)
	SetPartialCloseCheck(true)
	rng := rand.New(rand.NewSource(14))
	scratch := New(5)
	maxB := []int32{0, 4, 4, 4, 4}
	for trial := 0; trial < 200; trial++ {
		d := randomZone(rng, 5)
		d.Minimal().InflateInto(scratch)
		d.ExtrapolateMaxBounds(maxB)
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
