package dbm

import (
	"math/rand"
	"testing"
)

func TestNewUniversal(t *testing.T) {
	d := New(3)
	if d.IsEmpty() {
		t.Fatal("universal zone reported empty")
	}
	if got := d.At(1, 2); got != Infinity {
		t.Errorf("At(1,2) = %v, want inf", got)
	}
	if got := d.At(0, 1); got != LEZero {
		t.Errorf("At(0,1) = %v, want <=0 (clock non-negativity)", got)
	}
	if !d.Contains([]int64{0, 7, 3}) {
		t.Error("universal zone should contain (7,3)")
	}
	if d.Contains([]int64{0, -1, 3}) {
		t.Error("universal zone must exclude negative clocks")
	}
}

func TestZeroZone(t *testing.T) {
	d := Zero(3)
	if !d.Contains([]int64{0, 0, 0}) {
		t.Error("zero zone must contain origin")
	}
	if d.Contains([]int64{0, 0, 1}) {
		t.Error("zero zone must contain only the origin")
	}
}

func TestUpFromZero(t *testing.T) {
	d := Zero(3)
	d.Up()
	// After delay from origin: x1 == x2, both >= 0.
	if !d.Contains([]int64{0, 5, 5}) {
		t.Error("want (5,5) in up(origin)")
	}
	if d.Contains([]int64{0, 5, 4}) {
		t.Error("(5,4) must not be in up(origin): clocks advance in lockstep")
	}
}

func TestConstrain(t *testing.T) {
	d := Zero(3)
	d.Up()
	if !d.Constrain(1, 0, LE(10)) { // x1 <= 10
		t.Fatal("constrain x1<=10 emptied the zone")
	}
	if d.Contains([]int64{0, 11, 11}) {
		t.Error("x1=11 should violate x1<=10")
	}
	if !d.Contains([]int64{0, 10, 10}) {
		t.Error("x1=10 should satisfy x1<=10")
	}
	// Canonicity: upper bound must have propagated to x2 via x1==x2.
	if got := d.At(2, 0); got != LE(10) {
		t.Errorf("At(2,0) = %v, want <=10 (propagated)", got)
	}
}

func TestConstrainEmpties(t *testing.T) {
	d := Zero(2)
	d.Up()
	if !d.Constrain(1, 0, LE(5)) {
		t.Fatal("unexpected empty")
	}
	if d.Constrain(0, 1, LT(-5)) { // x1 > 5 contradicts x1 <= 5
		t.Fatal("expected empty zone")
	}
	if !d.IsEmpty() {
		t.Fatal("IsEmpty should report true after contradiction")
	}
}

func TestSatisfiable(t *testing.T) {
	d := Zero(2)
	d.Up()
	d.Constrain(1, 0, LE(5))
	if !d.Satisfiable(0, 1, LE(-3)) { // x1 >= 3 ok
		t.Error("x1>=3 should be satisfiable under x1<=5")
	}
	if d.Satisfiable(0, 1, LT(-5)) { // x1 > 5 not ok
		t.Error("x1>5 should be unsatisfiable under x1<=5")
	}
	// Satisfiable must not mutate.
	if !d.Contains([]int64{0, 0}) {
		t.Error("Satisfiable mutated the zone")
	}
}

func TestReset(t *testing.T) {
	d := Zero(3)
	d.Up()
	d.Constrain(1, 0, LE(10))
	d.Reset(2, 0)
	if !d.Contains([]int64{0, 7, 0}) {
		t.Error("after reset x2=0, (7,0) should be contained")
	}
	if d.Contains([]int64{0, 7, 1}) {
		t.Error("after reset x2=0, x2 must be exactly 0")
	}
	d.Reset(1, 3)
	if !d.Contains([]int64{0, 3, 0}) {
		t.Error("after reset x1=3, (3,0) should be contained")
	}
}

func TestFreeClock(t *testing.T) {
	d := Zero(3)
	d.Up()
	d.Constrain(1, 0, LE(4))
	d.FreeClock(2)
	if !d.Contains([]int64{0, 2, 99}) {
		t.Error("freed clock should be unconstrained above 0")
	}
	if d.Contains([]int64{0, 2, -1}) {
		t.Error("freed clock must stay non-negative")
	}
	if !isCanonical(d) {
		t.Error("FreeClock must preserve canonicity")
	}
}

func TestIncludes(t *testing.T) {
	big := Zero(2)
	big.Up()
	big.Constrain(1, 0, LE(10))
	small := Zero(2)
	small.Up()
	small.Constrain(1, 0, LE(5))
	if !big.Includes(small) {
		t.Error("[0,10] should include [0,5]")
	}
	if small.Includes(big) {
		t.Error("[0,5] should not include [0,10]")
	}
	if !big.Includes(big) {
		t.Error("inclusion must be reflexive")
	}
}

func TestExtrapolateMaxBounds(t *testing.T) {
	d := Zero(2)
	d.Up()
	d.Constrain(0, 1, LE(-100)) // x1 >= 100
	d.Constrain(1, 0, LE(200))  // x1 <= 200
	if !d.ExtrapolateMaxBounds([]int32{0, 10}) {
		t.Fatal("extrapolation emptied zone")
	}
	// Above max=10 the zone must look like x1 > 10 unbounded.
	if d.At(1, 0) != Infinity {
		t.Errorf("upper bound should be widened to inf, got %v", d.At(1, 0))
	}
	if !d.Contains([]int64{0, 11}) {
		t.Error("extrapolated zone should contain x1=11")
	}
	if d.Contains([]int64{0, 10}) {
		t.Error("extrapolated zone should still exclude x1=10 (bound -max strict)")
	}
	if !isCanonical(d) {
		t.Error("extrapolation must leave the DBM canonical")
	}
}

func TestExtrapolateInactiveClock(t *testing.T) {
	d := Zero(3)
	d.Up()
	d.Constrain(1, 0, LE(5))
	// Clock 2 never compared: max = -1 → all its bounds vanish.
	if !d.ExtrapolateMaxBounds([]int32{0, 10, -1}) {
		t.Fatal("extrapolation emptied zone")
	}
	if !d.Contains([]int64{0, 3, 1000}) {
		t.Error("inactive clock should be unconstrained")
	}
	if !isCanonical(d) {
		t.Error("result must be canonical")
	}
}

func TestEqualCloneHash(t *testing.T) {
	a := Zero(4)
	a.Up()
	a.Constrain(1, 2, LE(3))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone must be equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal DBMs must hash equal")
	}
	b.Constrain(3, 0, LE(1))
	if a.Equal(b) {
		t.Error("diverged clone still equal")
	}
	if a.Hash() == b.Hash() {
		t.Error("distinct DBMs should (generically) hash differently")
	}
}

func TestStringRendering(t *testing.T) {
	d := Zero(2)
	d.Up()
	d.Constrain(1, 0, LE(5))
	d.Constrain(0, 1, LT(-2))
	s := d.String()
	if s == "" || s == "true" || s == "false" {
		t.Errorf("unexpected rendering %q", s)
	}
	empty := Zero(2)
	empty.Up()
	empty.Constrain(1, 0, LE(5))
	empty.Constrain(0, 1, LT(-5))
	if got := empty.String(); got != "false" {
		t.Errorf("empty zone renders %q, want false", got)
	}
}

// isCanonical verifies the triangle inequality on every triple.
func isCanonical(d *DBM) bool {
	n := d.Dim()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if Add(d.At(i, k), d.At(k, j)) < d.At(i, j) {
					return false
				}
			}
		}
	}
	return true
}

// randomZone builds a random non-empty canonical zone of dimension n by
// applying random canonical-form-preserving operations to the origin.
func randomZone(rng *rand.Rand, n int) *DBM {
	d := Zero(n)
	for step := 0; step < 12; step++ {
		switch rng.Intn(4) {
		case 0:
			d.Up()
		case 1:
			d.Reset(1+rng.Intn(n-1), int32(rng.Intn(8)))
		case 2:
			i := 1 + rng.Intn(n-1)
			b := LE(int32(rng.Intn(20)))
			prev := d.Clone()
			if !d.Constrain(i, 0, b) {
				d = prev // keep non-empty
			}
		case 3:
			i := 1 + rng.Intn(n-1)
			b := LE(int32(-rng.Intn(6)))
			prev := d.Clone()
			if !d.Constrain(0, i, b) {
				d = prev
			}
		}
	}
	return d
}

func TestRandomOpsPreserveCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		d := randomZone(rng, 2+rng.Intn(4))
		if d.IsEmpty() {
			t.Fatal("randomZone produced empty zone")
		}
		if !isCanonical(d) {
			t.Fatalf("trial %d: non-canonical zone:\n%s", trial, d)
		}
	}
}

// Property: closure is idempotent on random zones.
func TestCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		d := randomZone(rng, 3)
		c := d.Clone()
		if !c.Close() {
			t.Fatal("close emptied non-empty canonical zone")
		}
		if !c.Equal(d) {
			t.Fatalf("trial %d: closure changed a canonical DBM", trial)
		}
	}
}

// Property: inclusion agrees with point membership on sampled valuations.
func TestIncludesSoundOnPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 3
		a, b := randomZone(rng, n), randomZone(rng, n)
		if a.Includes(b) {
			// Every sampled point of b must be in a.
			for s := 0; s < 50; s++ {
				v := []int64{0, int64(rng.Intn(25)), int64(rng.Intn(25))}
				if b.Contains(v) && !a.Contains(v) {
					t.Fatalf("trial %d: a ⊇ b claimed but %v ∈ b \\ a", trial, v)
				}
			}
		}
	}
}

// Property: Up makes zones grow, Constrain makes them shrink (w.r.t. point
// membership), verified against sampled valuations.
func TestOpsMonotoneOnPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		d := randomZone(rng, 3)
		up := d.Clone()
		up.Up()
		if !up.Includes(d) {
			t.Fatalf("trial %d: up(Z) must include Z", trial)
		}
		con := d.Clone()
		if con.Constrain(1, 0, LE(int32(rng.Intn(15)))) {
			if !d.Includes(con) {
				t.Fatalf("trial %d: Z must include Z∧g", trial)
			}
		}
	}
}

// Property: after Reset(i,v), every contained valuation has val[i]==v.
func TestResetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		d := randomZone(rng, 3)
		v := int32(rng.Intn(5))
		d.Reset(1, v)
		if d.IsEmpty() {
			t.Fatal("reset emptied zone")
		}
		if !isCanonical(d) {
			t.Fatal("reset broke canonicity")
		}
		for s := 0; s < 30; s++ {
			val := []int64{0, int64(rng.Intn(10)), int64(rng.Intn(10))}
			if d.Contains(val) && val[1] != int64(v) {
				t.Fatalf("trial %d: %v contained but x1 != %d", trial, val, v)
			}
		}
	}
}

// Property: extrapolation only grows the zone and preserves behaviour below
// the max bounds (points with all coordinates ≤ max are unaffected).
func TestExtrapolationGrowsAndPreservesLow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	max := []int32{0, 10, 10}
	for trial := 0; trial < 100; trial++ {
		d := randomZone(rng, 3)
		e := d.Clone()
		if !e.ExtrapolateMaxBounds(max) {
			t.Fatal("extrapolation emptied zone")
		}
		if !e.Includes(d) {
			t.Fatalf("trial %d: extrapolated zone must include original", trial)
		}
		for s := 0; s < 40; s++ {
			val := []int64{0, int64(rng.Intn(11)), int64(rng.Intn(11))}
			if d.Contains(val) != e.Contains(val) {
				t.Fatalf("trial %d: membership of low point %v changed", trial, val)
			}
		}
	}
}

func TestAppendBytesDistinguishes(t *testing.T) {
	a := Zero(3)
	a.Up()
	b := a.Clone()
	b.Constrain(1, 0, LE(3))
	ba := a.AppendBytes(nil)
	bb := b.AppendBytes(nil)
	if string(ba) == string(bb) {
		t.Error("serializations of different zones must differ")
	}
	if string(ba) != string(a.AppendBytes(nil)) {
		t.Error("serialization must be deterministic")
	}
}

func TestMemBytesPositive(t *testing.T) {
	if Zero(5).MemBytes() <= 0 {
		t.Error("MemBytes must be positive")
	}
}
