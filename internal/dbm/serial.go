package dbm

import "fmt"

// This file is the (de)serialization seam of the package: the checkpoint
// layer (internal/snapshot) persists zones in both representations — full
// canonical matrices and minimal-constraint forms — and rebuilds them on
// resume. Serialization is intentionally dumb: raw entries out, raw entries
// in, no re-canonicalization, so a zone round-trips bit-identically and a
// resumed search behaves exactly like the uninterrupted one.

// AppendBounds appends the row-major matrix entries to dst. Together with
// FromBounds it round-trips a DBM exactly (same entries, same dimension).
func (d *DBM) AppendBounds(dst []Bound) []Bound {
	return append(dst, d.m...)
}

// FromBounds reconstructs a DBM of dimension n from row-major entries as
// produced by AppendBounds. The entries are adopted verbatim — no closure
// runs — so the caller must supply a matrix that was canonical when
// captured; feeding back AppendBounds output satisfies that by
// construction.
func FromBounds(n int, m []Bound) (*DBM, error) {
	if n < 1 {
		return nil, fmt.Errorf("dbm: FromBounds dimension must be >= 1, got %d", n)
	}
	if len(m) != n*n {
		return nil, fmt.Errorf("dbm: FromBounds wants %d entries for dimension %d, got %d", n*n, n, len(m))
	}
	d := &DBM{n: n, m: make([]Bound, n*n)}
	copy(d.m, m)
	return d, nil
}

// AppendConstraints appends the stored minimal constraints to dst in their
// canonical emission order. Together with NewCompact it round-trips a
// Compact exactly (Equal, hence the same zone and the same RowMask).
func (c *Compact) AppendConstraints(dst []Constraint) []Constraint {
	return append(dst, c.cs...)
}

// NewCompact builds a minimal-constraint zone of dimension n over a copy
// of cs — the deserialization entry point for compact zones. The
// constraints are adopted in the given order; feeding back the output of
// AppendConstraints reproduces the original Compact bit-identically.
// Constraint indices are validated against the dimension (a corrupt
// checkpoint must not be able to index out of range during InflateInto).
// The class-cycle count that SubsetOf's mirror refutation needs is not
// serialized; leadingCycles derives it from the constraints.
func NewCompact(n int, cs []Constraint) (*Compact, error) {
	if n < 1 || n > 1<<16 {
		return nil, fmt.Errorf("dbm: NewCompact dimension must be in [1, 65536], got %d", n)
	}
	for _, cc := range cs {
		if int(cc.I) >= n || int(cc.J) >= n {
			return nil, fmt.Errorf("dbm: NewCompact constraint (%d,%d) out of range for dimension %d", cc.I, cc.J, n)
		}
	}
	cp := make([]Constraint, len(cs))
	copy(cp, cs)
	return &Compact{n: int32(n), cyc: int32(leadingCycles(cp)), cs: cp}, nil
}

// leadingCycles returns how many leading constraints of a minimal form are
// class cycles, the count Minimal records as Compact.cyc.
//
// For each equality class m0 < m1 < … < mk, in ascending order of m0,
// Minimal's phase 1 emits the chain (m0,m1), …, (m(k-1),mk) and the
// closing edge (mk,m0), leaving out (0,m1) when it is the base bound ≤ 0.
// The clocks of a class differ by constants, so its edges sum to exactly
// ≤ 0 (counting a left-out base edge as ≤ 0). The prefix is therefore
// parsed as cycles: an ascending contiguous chain closed by a descending
// edge back to the chain's start, or to 0 when the base edge 0→start was
// left out, weighing exactly ≤ 0. The parse stops at phase 2: its
// constraints are closure entries between distinct class representatives,
// and any cycle through two distinct classes weighs more than ≤ 0.
func leadingCycles(cs []Constraint) int {
	end := 0
	for end < len(cs) {
		start, at, sum := cs[end].I, cs[end].I, LEZero
		k := end
		for ; k < len(cs) && cs[k].I == at && cs[k].J > at; k++ {
			sum = Add(sum, cs[k].B)
			at = cs[k].J
		}
		if k == len(cs) {
			break
		}
		last := cs[k]
		if last.I != at || last.J >= at || (last.J != start && last.J != 0) || Add(sum, last.B) != LEZero {
			break
		}
		end = k + 1
	}
	return end
}
