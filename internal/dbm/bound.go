// Package dbm implements difference-bound matrices (DBMs), the canonical
// symbolic representation of clock zones used by zone-based reachability
// analysis of timed automata (the representation used inside UPPAAL).
//
// A DBM of dimension n represents a conjunction of constraints of the form
// xi - xj ≺ c where ≺ ∈ {<, ≤}, over clocks x1..x(n-1) and the reference
// clock x0 which is constantly zero. Entry (i,j) stores the tightest known
// upper bound on xi - xj.
package dbm

import (
	"fmt"
	"math"
)

// Bound is an upper bound "≺ c" on a clock difference, encoded as
//
//	raw = c<<1 | weak
//
// where weak is 1 for "≤ c" and 0 for "< c". With this encoding the natural
// integer order on raw values coincides with bound tightness: (< c) is
// strictly tighter than (≤ c), and both are tighter than any bound on a
// larger constant. Infinity is a distinguished maximal value.
type Bound int32

const (
	// Infinity is the absent constraint xi - xj < ∞.
	Infinity Bound = math.MaxInt32
	// LEZero is the bound "≤ 0", the zero element of bound addition.
	LEZero Bound = 1
	// LTZero is the bound "< 0"; a diagonal entry below LEZero marks an
	// empty (inconsistent) zone.
	LTZero Bound = 0
)

// MaxConst is the largest constant magnitude representable in a Bound
// without risking overflow in bound addition.
const MaxConst = math.MaxInt32 / 4

// LE returns the non-strict bound "≤ c".
func LE(c int32) Bound { return Bound(c<<1) | 1 }

// LT returns the strict bound "< c".
func LT(c int32) Bound { return Bound(c << 1) }

// Value returns the constant of the bound. It must not be called on
// Infinity.
func (b Bound) Value() int32 { return int32(b >> 1) }

// IsWeak reports whether the bound is non-strict ("≤").
func (b Bound) IsWeak() bool { return b&1 == 1 }

// Add returns the sum of two bounds: the tightest bound implied on x-z by
// bounds on x-y and y-z. Adding anything to Infinity yields Infinity.
func Add(a, b Bound) Bound {
	if a == Infinity || b == Infinity {
		return Infinity
	}
	return addFinite(a, b)
}

// addFinite is Add for two bounds known to be finite.
func addFinite(a, b Bound) Bound {
	// Constants add; the result is weak only if both operands are weak.
	return Bound(int32(a&^1)+int32(b&^1)) | (a & b & 1)
}

// Negate returns the bound expressing the complement threshold: for a
// constraint "x - y ≺ c", the negation is the tightest bound such that
// (y - x ≺' -c) excludes exactly the valuations satisfying the original.
// Concretely: ¬(≤ c) = (< -c) and ¬(< c) = (≤ -c).
func (b Bound) Negate() Bound {
	if b == Infinity {
		panic("dbm: negate of infinity")
	}
	if b.IsWeak() {
		return LT(-b.Value())
	}
	return LE(-b.Value())
}

// SatisfiedBy reports whether the concrete difference d satisfies the bound.
func (b Bound) SatisfiedBy(d int64) bool {
	if b == Infinity {
		return true
	}
	v := int64(b.Value())
	if b.IsWeak() {
		return d <= v
	}
	return d < v
}

// String renders the bound as "<c", "<=c" or "<inf".
func (b Bound) String() string {
	if b == Infinity {
		return "<inf"
	}
	if b.IsWeak() {
		return fmt.Sprintf("<=%d", b.Value())
	}
	return fmt.Sprintf("<%d", b.Value())
}
