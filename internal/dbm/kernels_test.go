package dbm

import (
	"math/rand"
	"testing"
)

// This file keeps the bodies the successor-path kernels replaced, as test
// references, and checks the kernels against them on random zones: dense
// ones, and sparse ones shaped like a plant's (delay, then half the clocks
// freed, then LU extrapolation), at n = 2..24.

// constrainEachRef is one Constrain per constraint, in order: what
// ConstrainUppers replaced.
func constrainEachRef(d *DBM, cs []Constraint) bool {
	for _, c := range cs {
		if !d.Constrain(int(c.I), int(c.J), c.B) {
			return false
		}
	}
	return true
}

// upUnderRef is Up followed by constrainEachRef: what UpUnder replaced.
func upUnderRef(d *DBM, cs []Constraint) bool {
	d.Up()
	return constrainEachRef(d, cs)
}

// extrapolateLURef is ExtrapolateLU evaluating every predicate per entry.
// It re-closes through the full Close when fullClose is set, which keeps
// it independent of the partial close it checks, and through closeRaised
// otherwise, which keeps the benchmark pair comparing like with like.
func extrapolateLURef(d *DBM, lower, upper []int32, fullClose bool) bool {
	if d.IsEmpty() {
		return false
	}
	n := d.n
	s := getRaiseScratch(n)
	raise := func(i, j int, b Bound) {
		if d.m[i*n+j] != b {
			d.m[i*n+j] = b
			s.mark(i)
		}
	}
	for i := 1; i < n; i++ {
		lbI := int64(0)
		if d.m[i] != Infinity {
			lbI = -int64(d.m[i].Value())
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b := d.m[i*n+j]
			switch {
			case b != Infinity && (lower[i] < 0 || int64(b.Value()) > int64(lower[i])):
				raise(i, j, Infinity)
			case lower[i] >= 0 && lbI > int64(lower[i]):
				raise(i, j, Infinity)
			case j != 0 && b != Infinity && zoneLBExceeds(d, j, upper):
				raise(i, j, Infinity)
			}
		}
	}
	for j := 1; j < n; j++ {
		if zoneLBExceeds(d, j, upper) {
			if upper[j] < 0 {
				if d.m[j] != LEZero {
					raise(0, j, LEZero)
				}
			} else {
				raise(0, j, LT(-upper[j]))
			}
		}
	}
	switch {
	case len(s.rows) == 0:
		putRaiseScratch(s)
	case fullClose:
		putRaiseScratch(s)
		d.Close()
	default:
		d.closeRaised(s)
	}
	return true
}

// minimalRef is Reducer.Minimal scanning all n² entries in both phases,
// on r's scratch space. Give it a Reducer of its own: it does not size the
// buffers the current Minimal needs.
func minimalRef(r *Reducer, d *DBM) *Compact {
	n := d.n
	if d.IsEmpty() {
		return &Compact{n: int32(n), cs: []Constraint{{0, 0, LTZero}}}
	}
	buf := r.buf[:0]
	if cap(r.rep) < n {
		r.rep = make([]int, n)
		r.members = make([]int, 0, n)
	}
	rep := r.rep[:n]
	for i := range rep {
		rep[i] = -1
	}
	members := r.members
	for i := 0; i < n; i++ {
		if rep[i] != -1 {
			continue
		}
		rep[i] = i
		members = members[:0]
		members = append(members, i)
		for j := i + 1; j < n; j++ {
			if rep[j] == -1 && Add(d.m[i*n+j], d.m[j*n+i]) == LEZero {
				rep[j] = i
				members = append(members, j)
			}
		}
		if len(members) > 1 {
			for k := 0; k+1 < len(members); k++ {
				a, b := members[k], members[k+1]
				if v := d.m[a*n+b]; a != 0 || v != LEZero {
					buf = append(buf, Constraint{uint16(a), uint16(b), v})
				}
			}
			last, first := members[len(members)-1], members[0]
			if v := d.m[last*n+first]; last != 0 || v != LEZero {
				buf = append(buf, Constraint{uint16(last), uint16(first), v})
			}
		}
	}
	cyc := len(buf)
	reps := members[:0]
	for i := 0; i < n; i++ {
		if rep[i] == i {
			reps = append(reps, i)
		}
	}
	for _, i := range reps {
		rowI := d.m[i*n : i*n+n]
		for _, j := range reps {
			if j == i {
				continue
			}
			b := rowI[j]
			if b == Infinity {
				continue
			}
			redundant := false
			for _, k := range reps {
				if k == i || k == j {
					continue
				}
				dik := rowI[k]
				if dik == Infinity {
					continue
				}
				if Add(dik, d.m[k*n+j]) <= b {
					redundant = true
					break
				}
			}
			if !redundant && (i != 0 || b != LEZero) {
				buf = append(buf, Constraint{uint16(i), uint16(j), b})
			}
		}
	}
	r.buf = buf
	cs := make([]Constraint, len(buf))
	copy(cs, buf)
	return &Compact{n: int32(n), cyc: int32(cyc), cs: cs}
}

// denseZone is a random canonical zone with about 3n operations applied
// to the origin, including diagonal constraints.
func denseZone(rng *rand.Rand, n int) *DBM {
	d := Zero(n)
	for step := 0; step < 3*n; step++ {
		i, j := 1+rng.Intn(n-1), rng.Intn(n)
		var b Bound
		switch rng.Intn(5) {
		case 0:
			d.Up()
			continue
		case 1:
			d.Reset(i, int32(rng.Intn(8)))
			continue
		case 2:
			i, j = 0, i
			b = randomBound(rng, -6, 0)
		case 3:
			j = 0
			b = randomBound(rng, 0, 20)
		case 4:
			if i == j {
				continue
			}
			b = randomBound(rng, -5, 10)
		}
		prev := d.Clone()
		if !d.Constrain(i, j, b) {
			d = prev // keep non-empty
		}
	}
	return d
}

// randomBound is a weak or strict bound on a constant in [lo, hi].
func randomBound(rng *rand.Rand, lo, hi int) Bound {
	v := int32(lo + rng.Intn(hi-lo+1))
	if rng.Intn(2) == 0 {
		return LT(v)
	}
	return LE(v)
}

// randomLU draws per-clock LU bounds in [-1, 15] (-1: never compared).
func randomLU(rng *rand.Rand, n int) (lower, upper []int32) {
	lower, upper = make([]int32, n), make([]int32, n)
	for i := 1; i < n; i++ {
		lower[i] = int32(rng.Intn(17) - 1)
		upper[i] = int32(rng.Intn(17) - 1)
	}
	return lower, upper
}

// plantShapedZone is the shape of a large plant's successor zones: a
// delayed dense zone with about half its clocks freed (inactive) and the
// rest LU-extrapolated, leaving most of the n² entries at ∞ (about 17% of
// them finite at n = 20).
func plantShapedZone(rng *rand.Rand, n int) *DBM {
	d := freedZone(rng, n)
	lower, upper := randomLU(rng, n)
	extrapolateLURef(d, lower, upper, true)
	return d
}

// freedZone is plantShapedZone before extrapolation: a delayed dense zone
// with about half its clocks freed.
func freedZone(rng *rand.Rand, n int) *DBM {
	d := denseZone(rng, n)
	d.Up()
	for i := 1; i < n; i++ {
		if rng.Intn(2) == 0 {
			d.FreeClock(i)
		}
	}
	return d
}

// kernelZone draws a dense or a plant-shaped zone of a random dimension in
// 2..24.
func kernelZone(rng *rand.Rand) *DBM {
	n := 2 + rng.Intn(23)
	if rng.Intn(2) == 0 {
		return denseZone(rng, n)
	}
	return plantShapedZone(rng, n)
}

// randomInvariant draws an invariant for a zone: 0..5 upper bounds xI ≺ c
// with c near the zone's bounds on xI (so some tighten, some do not, and
// some empty the zone) and, when diag is set, a diagonal bound xI - xJ ≺ c
// next to about a third of them. It returns all the constraints in a
// shuffled order, and the upper bounds alone.
func randomInvariant(rng *rand.Rand, d *DBM, diag bool) (all, ups []Constraint) {
	n := d.Dim()
	for k := rng.Intn(6); k > 0; k-- {
		i := 1 + rng.Intn(n-1)
		lo := int(-d.At(0, i).Value()) - 2
		hi := lo + 12
		if ub := d.At(i, 0); ub != Infinity {
			hi = int(ub.Value()) + 2
		}
		if hi < lo {
			hi = lo
		}
		c := Constraint{I: uint16(i), B: randomBound(rng, lo, hi)}
		all = append(all, c)
		ups = append(ups, c)
		if diag && n > 2 && rng.Intn(3) == 0 {
			j := 1 + rng.Intn(n-1)
			if j != i {
				all = append(all, Constraint{I: uint16(i), J: uint16(j), B: randomBound(rng, -3, 8)})
			}
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all, ups
}

// applyInvariant is the engine's split application: the upper bounds in
// one ConstrainUppers, then each diagonal bound through Constrain.
func applyInvariant(d *DBM, all, ups []Constraint) bool {
	if !d.ConstrainUppers(ups) {
		return false
	}
	for _, c := range all {
		if c.J != 0 && !d.Constrain(int(c.I), int(c.J), c.B) {
			return false
		}
	}
	return true
}

// Property: ConstrainUppers (plus Constrain for the diagonal bounds) gives
// the per-constraint Constrain loop's verdict and, on non-empty results,
// its matrix.
func TestConstrainUppersMatchesConstrainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	var emptied, tightened, unchanged, withDiag int
	for trial := 0; trial < 6000; trial++ {
		d := kernelZone(rng)
		all, ups := randomInvariant(rng, d, trial%2 == 0)
		if len(all) != len(ups) {
			withDiag++
		}
		got, want := d.Clone(), d.Clone()
		okGot := applyInvariant(got, all, ups)
		okWant := constrainEachRef(want, all)
		if okGot != okWant {
			t.Fatalf("trial %d: ConstrainUppers non-empty=%v, Constrain loop %v\nzone %s\ninvariant %v", trial, okGot, okWant, d, all)
		}
		switch {
		case !okWant:
			emptied++
			if !got.IsEmpty() {
				t.Fatalf("trial %d: inconsistent result not marked empty", trial)
			}
			continue
		case want.Equal(d):
			unchanged++
		default:
			tightened++
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: ConstrainUppers diverges\nzone %s\ninvariant %v\ngot  %s\nwant %s", trial, d, all, got, want)
		}
		if trial%20 == 0 && !isCanonical(got) {
			t.Fatalf("trial %d: result not canonical", trial)
		}
	}
	if emptied < 300 || tightened < 1000 || unchanged < 300 || withDiag < 500 {
		t.Fatalf("vacuous: %d emptied, %d tightened, %d unchanged, %d with diagonal bounds", emptied, tightened, unchanged, withDiag)
	}
}

// Property: on a zone that satisfies an invariant, UpUnder with its upper
// bounds equals Up followed by re-applying the whole invariant, diagonal
// bounds included.
func TestUpUnderMatchesUpThenConstrain(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	var changed, checked int
	for trial := 0; trial < 6000; trial++ {
		d := kernelZone(rng)
		all, ups := randomInvariant(rng, d, trial%2 == 0)
		if !constrainEachRef(d, all) {
			continue
		}
		got, want := d.Clone(), d.Clone()
		got.UpUnder(ups)
		if !upUnderRef(want, all) {
			t.Fatalf("trial %d: delay under a satisfied invariant emptied the zone", trial)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: UpUnder diverges\nzone %s\ninvariant %v\ngot  %s\nwant %s", trial, d, all, got, want)
		}
		checked++
		if !want.Equal(d) {
			changed++
		}
	}
	if checked < 3000 || changed < 500 {
		t.Fatalf("vacuous: %d checked, %d changed by the delay", checked, changed)
	}
}

// Property: ExtrapolateLU, with its predicates lifted out of the entry loop
// and its partial re-close, matches the per-entry evaluation followed by a
// full Close.
func TestExtrapolateLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	var raised int
	for trial := 0; trial < 6000; trial++ {
		n := 2 + rng.Intn(23)
		var d *DBM
		if trial%2 == 0 {
			d = freedZone(rng, n)
		} else {
			d = denseZone(rng, n)
		}
		lower, upper := randomLU(rng, n)
		got, want := d.Clone(), d.Clone()
		okGot := got.ExtrapolateLU(lower, upper)
		okWant := extrapolateLURef(want, lower, upper, true)
		if okGot != okWant || !got.Equal(want) {
			t.Fatalf("trial %d: ExtrapolateLU diverges\nL=%v U=%v\nzone %s\ngot  %s\nwant %s", trial, lower, upper, d, got, want)
		}
		if !want.Equal(d) {
			raised++
		}
	}
	if raised < 3000 {
		t.Fatalf("vacuous: only %d zones changed", raised)
	}
}

// Property: Reducer.Minimal over finite entries emits exactly the
// reference's constraints in the same order, and the same class-cycle
// count, with one reducer reused across dimensions, including ones past
// 64 where a row's bitset spans several words.
func TestMinimalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	var r, ref Reducer
	for trial := 0; trial < 6300; trial++ {
		n := 2 + rng.Intn(23)
		if trial >= 6000 {
			n = 60 + rng.Intn(80)
		}
		var d *DBM
		switch trial % 3 {
		case 0:
			d = denseZone(rng, n)
		case 1:
			d = plantShapedZone(rng, n)
		default:
			d = sparseZone(rng, n)
		}
		if got, want := r.Minimal(d), minimalRef(&ref, d); !got.Equal(want) || got.cyc != want.cyc {
			t.Fatalf("trial %d: Minimal diverges\nzone %s\ngot  %v (%d cycle constraints)\nwant %v (%d)",
				trial, d, got.cs, got.cyc, want.cs, want.cyc)
		}
	}
	if got, want := r.Minimal(emptyZone(7)), minimalRef(&ref, emptyZone(7)); !got.Equal(want) {
		t.Fatalf("empty zone: got %v, want %v", got.cs, want.cs)
	}
}
