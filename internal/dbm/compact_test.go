package dbm

import (
	"math/rand"
	"testing"
	"unsafe"
)

// Property: Minimal → Inflate round-trips to an Equal canonical DBM, and
// the compact form never stores more constraints than the full matrix has
// finite off-diagonal entries.
func TestMinimalInflateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(5)
		d := randomZone(rng, n)
		c := d.Minimal()
		back := c.Inflate()
		if !back.Equal(d) {
			t.Fatalf("trial %d: round trip mismatch\noriginal: %s\ncompact:  %d constraints\nback:     %s",
				trial, d, c.Len(), back)
		}
		finite := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && d.At(i, j) != Infinity {
					finite++
				}
			}
		}
		if c.Len() > finite {
			t.Fatalf("trial %d: compact form larger (%d) than finite entries (%d)", trial, c.Len(), finite)
		}
	}
}

// Property: InflateInto into a reused scratch DBM agrees with Inflate.
func TestInflateIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scratch := New(4)
	for trial := 0; trial < 200; trial++ {
		d := randomZone(rng, 4)
		c := d.Minimal()
		if !c.InflateInto(scratch) {
			t.Fatalf("trial %d: inflated zone empty", trial)
		}
		if !scratch.Equal(d) {
			t.Fatalf("trial %d: InflateInto mismatch\noriginal: %s\nback:     %s", trial, d, scratch)
		}
	}
}

// Property: IncludesDBM on the compact form agrees with Includes on the
// full DBMs, over randomized zone pairs (both related and unrelated).
func TestIncludesDBMAgreesWithIncludes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	agree, disagreeCases := 0, 0
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(4)
		a, b := randomZone(rng, n), randomZone(rng, n)
		if trial%3 == 0 {
			// Make inclusion likely: widen a by delay closure.
			a = b.Clone()
			a.Up()
		}
		want := a.Includes(b)
		got := a.Minimal().IncludesDBM(b)
		if got != want {
			t.Fatalf("trial %d: IncludesDBM=%v, Includes=%v\na: %s\nb: %s", trial, got, want, a, b)
		}
		agree++
		if want {
			disagreeCases++
		}
	}
	if disagreeCases == 0 {
		t.Fatal("no inclusion pairs generated; test is vacuous")
	}
}

// Property: the hoisted rejection scan — ClocksNonNegative once, then
// IncludesNonNegative per stored zone — decides "some stored zone includes
// o" exactly as IncludesDBM per stored zone and Includes on the inflated
// zones do, including for matrices whose row 0 admits negative clocks
// (which no canonical zone has, so they are built by hand here).
func TestHoistedRejectionScanAgreesWithIncludesDBM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hits, negRows := 0, 0
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(5)
		o := randomZone(rng, n)
		stored := make([]*Compact, 1+rng.Intn(4))
		for k := range stored {
			z := randomZone(rng, n)
			if rng.Intn(2) == 0 {
				z = o.Clone()
				z.Up()
			}
			stored[k] = z.Minimal()
		}
		if trial%4 == 0 {
			m := o.AppendBounds(nil)
			m[1+rng.Intn(n-1)] = LE(int32(1 + rng.Intn(3)))
			o, _ = FromBounds(n, m)
			negRows++
		}
		want, perEntry := false, false
		for _, c := range stored {
			want = want || c.Inflate().Includes(o)
			perEntry = perEntry || c.IncludesDBM(o)
		}
		got := false
		if o.ClocksNonNegative() {
			for _, c := range stored {
				got = got || c.IncludesNonNegative(o)
			}
		}
		if got != want || perEntry != want {
			t.Fatalf("trial %d: hoisted scan=%v, IncludesDBM scan=%v, Includes=%v\no: %s",
				trial, got, perEntry, want, o)
		}
		if want {
			hits++
		}
	}
	if hits == 0 || negRows == 0 {
		t.Fatalf("vacuous: %d including pairs, %d negative rows", hits, negRows)
	}
}

// subsetRef is the eviction test by brute force: inflate the stored zone
// and compare full canonical matrices, with the empty zone a subset of
// everything and nothing non-empty a subset of it.
func subsetRef(cOld *Compact, newZ *DBM) bool {
	o := cOld.Inflate()
	switch {
	case o.IsEmpty():
		return true
	case newZ.IsEmpty():
		return false
	}
	return newZ.Includes(o)
}

// sparseZone constrains a handful of the n clocks of the universal zone,
// leaving the rest unbounded: the shape of a large plant zone.
func sparseZone(rng *rand.Rand, n int) *DBM {
	d := New(n)
	for k := 0; k < 4+rng.Intn(6); k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		b := LE(int32(rng.Intn(20) - 5))
		if j == 0 {
			b = LE(int32(rng.Intn(20)))
		} else if i == 0 {
			b = LE(int32(-rng.Intn(6)))
		}
		prev := d.Clone()
		if !d.Constrain(i, j, b) {
			d = prev // keep non-empty
		}
	}
	return d
}

// emptyZone returns an empty zone of dimension n, whose minimal form is the
// empty-zone sentinel.
func emptyZone(n int) *DBM {
	d := Zero(n)
	d.Constrain(0, 1, LTZero) // x1 > 0 contradicts x1 == 0
	return d
}

// pinnedPair draws a stored zone and a newcomer that pins a clock
// difference the stored zone leaves open: for a weak minimal constraint
// x_a − x_b ≤ w between two equality classes, the newcomer is the zone
// (as is, delayed, or with one clock freed) plus x_b − x_a ≤ −w. Pairs
// where the newcomer tightens a stored bound are drawn again, so every
// pair passes SubsetOf's forward check. That is the shape of most
// eviction tests on Fischer's protocol.
func pinnedPair(rng *rand.Rand, n int, gen func(*rand.Rand, int) *DBM) (oldZ, newZ *DBM) {
	for {
		oldZ = gen(rng, n)
		c := oldZ.Minimal()
		var open []Constraint
		for _, cc := range c.cs {
			if cc.B.IsWeak() && Add(cc.B, oldZ.At(int(cc.J), int(cc.I))) > LEZero {
				open = append(open, cc)
			}
		}
		if len(open) == 0 {
			continue
		}
		newZ = oldZ.Clone()
		switch rng.Intn(3) {
		case 1:
			newZ.Up()
		case 2:
			newZ.FreeClock(1 + rng.Intn(n-1))
		}
		pin := open[rng.Intn(len(open))]
		if !newZ.Constrain(int(pin.J), int(pin.I), LE(-pin.B.Value())) {
			panic("pinnedPair: pinning a bound the stored zone attains emptied the newcomer")
		}
		within := true
		for _, cc := range c.cs {
			within = within && cc.B <= newZ.At(int(cc.I), int(cc.J))
		}
		if within {
			return oldZ, newZ
		}
	}
}

// Property: the eviction test SubsetOf agrees with Inflate + Includes over
// random pairs at n = 2..8, at the sparse n = 66 that once needed a
// full-inflate fallback, on pinned pairs, and with the empty-zone sentinel
// on either side; a compact zone rebuilt by NewCompact answers the same.
//
// The mirror refutation must decide: a call that leaves dist untouched
// never ran the shortest-path test, and if no stored constraint is looser
// than the newcomer's entry, the mirror returned its false. It must decide
// every pinned pair, and most of them in the equality case, where no
// stored constraint has a strict mirror. A mirror that tested the class
// cycles would refute true subsets here; one that refuted strictly only
// would leave the equality cases to the shortest-path test. (Builds with
// the dbmcheck tag run that test after every mirror refutation too, so
// they check the answers only.)
func TestSubsetOfAgreesWithInflateIncludes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var dist []Bound
	subsets, emptyOld, emptyNew := 0, 0, 0
	mirror, mirrorEq := 0, 0
	check := func(trial int, oldZ, newZ *DBM) (byMirror bool) {
		n := oldZ.Dim()
		if len(dist) < n*n {
			dist = make([]Bound, n*n)
		}
		cOld, cNew := oldZ.Minimal(), newZ.Minimal()
		want := subsetRef(cOld, newZ)
		dist[0] = LTZero // the shortest-path test overwrites it with Infinity
		got := cOld.SubsetOf(newZ, cNew, dist)
		if got != want {
			t.Fatalf("trial %d (n=%d): SubsetOf=%v, Inflate+Includes=%v\nold: %s\nnew: %s",
				trial, n, got, want, oldZ, newZ)
		}
		if !shadowCheck && dist[0] == LTZero && !got && !cOld.isEmpty() {
			byMirror = true
			equality := true
			for k, cc := range cOld.cs {
				i, j := int(cc.I), int(cc.J)
				if cc.B > newZ.At(i, j) {
					byMirror = false // the forward check may have decided
				}
				if k >= int(cOld.cyc) && Add(newZ.At(j, i), cc.B) < LEZero {
					equality = false
				}
			}
			if byMirror {
				mirror++
			}
			if byMirror && equality {
				mirrorEq++
			}
		}
		back, err := NewCompact(n, cOld.AppendConstraints(nil))
		if err != nil {
			t.Fatalf("trial %d: NewCompact: %v", trial, err)
		}
		if rt := back.SubsetOf(newZ, cNew, dist); rt != got {
			t.Fatalf("trial %d (n=%d): restored SubsetOf=%v, original %v\nold: %s\nnew: %s",
				trial, n, rt, got, oldZ, newZ)
		}
		if want {
			subsets++
		}
		return byMirror
	}
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(7)
		oldZ, newZ := loosenedPair(rng, n, randomZone)
		switch rng.Intn(20) {
		case 0:
			oldZ = emptyZone(n)
			emptyOld++
		case 1:
			newZ = emptyZone(n)
			emptyNew++
		}
		check(trial, oldZ, newZ)
	}
	for trial := 0; trial < 300; trial++ {
		oldZ, newZ := loosenedPair(rng, 66, sparseZone)
		check(trial, oldZ, newZ)
	}
	const pinned = 1000
	for trial := 0; trial < pinned; trial++ {
		gen, n := randomZone, 2+rng.Intn(7)
		if trial%4 == 0 {
			gen, n = sparseZone, 66
		}
		oldZ, newZ := pinnedPair(rng, n, gen)
		if !check(trial, oldZ, newZ) && !shadowCheck {
			t.Fatalf("pinned trial %d (n=%d): the mirror did not decide\nold: %s\nnew: %s", trial, n, oldZ, newZ)
		}
	}
	check(-1, emptyZone(66), sparseZone(rng, 66))
	check(-2, sparseZone(rng, 66), emptyZone(66))
	check(-3, emptyZone(4), emptyZone(4))
	if subsets < 1000 || emptyOld == 0 || emptyNew == 0 {
		t.Fatalf("vacuous: %d subsets, %d empty old, %d empty new", subsets, emptyOld, emptyNew)
	}
	if !shadowCheck && (mirrorEq < pinned/2 || mirror-mirrorEq < 25) {
		t.Fatalf("the mirror decided %d pairs, %d of them in the equality case", mirror, mirrorEq)
	}
	t.Logf("mirror decided %d pairs (%d by equality)", mirror, mirrorEq)
}

// Property: NewCompact derives the class-cycle count Minimal records, on
// zones of every shape the tests draw, including ones whose clocks all
// sit in a few classes and the empty-zone sentinel; it rejects dimensions
// and indices out of range.
func TestNewCompactDerivesClassCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gens := []func(*rand.Rand, int) *DBM{randomZone, denseZone, plantShapedZone, sparseZone}
	classed := 0
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(9)
		d := gens[trial%len(gens)](rng, n)
		switch trial % 5 {
		case 0:
			d = Zero(n)
			d.Up()
		case 1:
			d.Reset(1+rng.Intn(n-1), 0) // joins the class of x0
		}
		want := d.Minimal()
		got, err := NewCompact(n, want.AppendConstraints(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.cyc != want.cyc || !got.Equal(want) {
			t.Fatalf("trial %d: derived %d class-cycle constraints, Minimal recorded %d\nzone: %s\nconstraints: %v",
				trial, got.cyc, want.cyc, d, want.cs)
		}
		if want.cyc > 0 {
			classed++
		}
	}
	if e, _ := NewCompact(4, emptyZone(4).Minimal().AppendConstraints(nil)); e.cyc != 0 {
		t.Fatalf("empty-zone sentinel: derived %d class-cycle constraints, want 0", e.cyc)
	}
	for _, bad := range []struct {
		n  int
		cs []Constraint
	}{{0, nil}, {1<<16 + 1, nil}, {3, []Constraint{{1, 3, LEZero}}}} {
		if _, err := NewCompact(bad.n, bad.cs); err == nil {
			t.Fatalf("NewCompact(%d, %v) accepted", bad.n, bad.cs)
		}
	}
	if classed < 1000 {
		t.Fatalf("vacuous: only %d zones had an equality class", classed)
	}
}

// Property: minimal forms are a unique canonical representation — Compact
// Equal coincides with DBM Equal.
func TestCompactEqualIsZoneEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(4)
		a, b := randomZone(rng, n), randomZone(rng, n)
		if trial%2 == 0 {
			b = a.Clone()
		}
		want := a.Equal(b)
		got := a.Minimal().Equal(b.Minimal())
		if got != want {
			t.Fatalf("trial %d: compact Equal=%v, DBM Equal=%v\na: %s\nb: %s", trial, got, want, a, b)
		}
	}
}

// The zero zone (all clocks equal 0) is one equality class: the compact
// form is a cycle of n-1 constraints (the base zone supplies the rest),
// versus n² entries in the full matrix.
func TestMinimalZeroZone(t *testing.T) {
	for n := 1; n <= 8; n++ {
		c := Zero(n).Minimal()
		want := n - 1
		if c.Len() != want {
			t.Errorf("n=%d: Zero zone compact has %d constraints, want %d", n, c.Len(), want)
		}
		if !c.Inflate().Equal(Zero(n)) {
			t.Errorf("n=%d: Zero zone round trip failed", n)
		}
	}
}

// The universal zone needs no constraints at all: everything is supplied by
// the base zone Inflate starts from.
func TestMinimalUniversalZone(t *testing.T) {
	for n := 1; n <= 8; n++ {
		c := New(n).Minimal()
		if c.Len() != 0 {
			t.Errorf("n=%d: universal zone compact has %d constraints, want 0", n, c.Len())
		}
		if !c.Inflate().Equal(New(n)) {
			t.Errorf("n=%d: universal zone round trip failed", n)
		}
	}
}

// An empty zone compacts to the inconsistent marker and inflates back to an
// empty zone; it includes nothing.
func TestMinimalEmptyZone(t *testing.T) {
	d := Zero(3)
	d.markEmpty()
	c := d.Minimal()
	if c.InflateInto(New(3)) {
		t.Error("inflated empty zone reported non-empty")
	}
	if c.IncludesDBM(Zero(3)) {
		t.Error("empty compact zone includes the zero zone")
	}
}

// Compact stays a 32-byte header (the 32 in MemBytes): the class-cycle
// count fits beside an int32 dimension.
func TestCompactHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Compact{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Compact{}) = %d, want 32", got)
	}
}

// MemBytes of the compact form must undercut the full matrix on realistic
// zones — the whole point of the representation.
func TestCompactMemBytesSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	smaller := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		d := randomZone(rng, 8)
		if d.Minimal().MemBytes() < d.MemBytes() {
			smaller++
		}
	}
	if smaller < trials*9/10 {
		t.Errorf("compact form smaller in only %d/%d trials", smaller, trials)
	}
}
