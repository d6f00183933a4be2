package dbm

// This file implements the minimal-constraint ("compact") representation of
// canonical zones, following Larsen, Larsson, Pettersson and Yi ("Efficient
// Verification of Real-Time Systems: Compact Data Structure and State-Space
// Reduction", RTSS'97): a canonical DBM is uniquely determined by the small
// set of difference constraints that survive redundancy elimination, so a
// passed list can store O(k) constraints per zone instead of the full O(n²)
// matrix. On typical timed-automata zones k is close to n, which is where
// UPPAAL's memory headroom in the paper's experiments comes from.
//
// The reduction has two phases. First, clocks related by an equality
// (xi - xj ≤ c and xj - xi ≤ -c, both weak — a zero cycle in the constraint
// graph) are grouped into equivalence classes, and each class is pinned by a
// single cycle of constraints through its members; keeping a cycle rather
// than all pairs is what makes the form minimal on zones with many equal
// clocks (fresh resets). Second, on the quotient graph of class
// representatives — which by construction has no zero cycles, making
// simultaneous elimination sound — a constraint (i,j) is dropped when some
// representative k ≠ i,j gives a path at least as tight:
// d(i,k) + d(k,j) ≤ d(i,j).
//
// Constraints that the universal zone New() already encodes (xj ≥ 0, i.e.
// entry (0,j) = LEZero) are never stored: Inflate starts from New(), so they
// are reconstructed for free, and IncludesDBM accounts for them with an O(n)
// row-0 check. This relies on the package-wide invariant that row 0 of every
// canonical zone is ≤ LEZero (clocks are never negative), which every
// operation in this package preserves.

import "math/bits"

// Constraint is one difference constraint xi - xj ≺ c of a compact zone.
// I and J are clock indices (J may be 0, the reference clock).
type Constraint struct {
	I, J uint16
	B    Bound
}

// Compact is a canonical zone in minimal-constraint form. It is immutable
// after creation and safe to share between goroutines. The zero value is
// not useful; obtain one from DBM.Minimal.
type Compact struct {
	n  int
	cs []Constraint
}

// Dim returns the dimension of the zone (including the reference clock).
func (c *Compact) Dim() int { return c.n }

// Len returns the number of stored constraints.
func (c *Compact) Len() int { return len(c.cs) }

// MemBytes returns the approximate heap footprint in bytes, the unit of the
// explorer's space accounting (8 bytes per constraint plus headers).
func (c *Compact) MemBytes() int {
	return 8*len(c.cs) + 32
}

// RowMask returns the set of clock rows sourcing at least one stored
// constraint, as a bitmask (bit 0 always set for the reference row;
// all-ones beyond 64 clocks, where the mask degrades to "any row").
//
// The mask is a cheap necessary condition for zone inclusion between
// minimal forms: a finite closure entry of zone(a) at (i,j), i ≥ 1, needs a
// path i ⇝ j in a's constraint graph, whose first edge must be a stored
// constraint sourced at i (the implied base edges x_j - x_0 ≤ 0 all leave
// the reference row). Hence zone(a) ⊆ zone(b) — every constraint of b's
// minimal form matched by a finite closure entry of a — requires
// RowMask(b) &^ RowMask(a) == 0. Stores use this to skip the
// eviction-direction inclusion test (SubsetOf).
//
// No analogous column condition exists: the base edges enter every column
// from the reference row, so a clock can be a finite closure target without
// ever being a stored-constraint target. (Likewise bit 0 is forced on both
// sides: row 0 of any nonempty closure is finite via the base edges alone.)
func (c *Compact) RowMask() uint64 {
	if c.n > 64 {
		return ^uint64(0)
	}
	m := uint64(1)
	for _, cc := range c.cs {
		m |= 1 << cc.I
	}
	return m
}

// Minimal extracts the minimal-constraint form of a canonical zone. The
// result round-trips through Inflate to an Equal DBM, and is unique: two
// canonical DBMs represent the same zone iff their Minimal forms are Equal.
// An empty zone yields the single inconsistent constraint x0 - x0 < 0.
func (d *DBM) Minimal() *Compact {
	var r Reducer
	return r.Minimal(d)
}

// Reducer extracts minimal-constraint forms while reusing its internal
// scratch buffers across calls, so a store inserting one compact zone per
// stored state pays exactly one exact-size allocation per zone instead of
// the work buffers and append-growth of the one-shot DBM.Minimal. A Reducer
// is not safe for concurrent use; give each store shard its own.
type Reducer struct {
	rep     []int
	members []int
	buf     []Constraint
	// Bitsets of w = ⌈n/64⌉ words each: rowBits[i*w:] holds the finite
	// off-diagonal columns of representative row i, colBits[j*w:] the
	// representative rows k ≠ j with a finite entry (k,j), and repBits the
	// class representatives.
	rowBits, colBits, repBits []uint64
}

// Minimal is DBM.Minimal computed through the reducer's scratch space. The
// returned Compact holds a freshly allocated, exactly sized constraint
// slice and shares nothing with the reducer, and is bit-identical (same
// constraints, same order) to what DBM.Minimal returns.
//
// Both phases only ever test finite entries of representative rows: an
// equality needs both entries of the pair finite, a kept constraint is
// finite, and a witness path i→k→j needs both hops finite. So each
// representative row is scanned once into a bitset of its finite columns,
// the columns get the transposed sets, and the phases visit only set bits:
// on the sparse zones of large models, where most of the n² entries are
// ∞, the witnesses for (i,j) are the few k in row i's set and column j's
// set at once, and rows of clocks equal to a smaller one are never
// scanned.
func (r *Reducer) Minimal(d *DBM) *Compact {
	n := d.n
	if d.IsEmpty() {
		return &Compact{n: n, cs: []Constraint{{0, 0, LTZero}}}
	}
	// Constraints (0, j, LEZero) are implied by the universal base zone
	// (xj >= 0) and skipped at every emission site below.
	buf := r.buf[:0]

	w := (n + 63) / 64
	if cap(r.rep) < n {
		r.rep = make([]int, n)
		r.members = make([]int, 0, n)
		r.rowBits, r.colBits = make([]uint64, n*w), make([]uint64, n*w)
		r.repBits = make([]uint64, w)
	}
	rep := r.rep[:n]
	rowBits, colBits, repBits := r.rowBits[:n*w], r.colBits[:n*w], r.repBits[:w]

	// Phase 1: zero-cycle equivalence classes, pinned by one cycle each.
	// rep[i] is the smallest clock index equal to clock i. Only a
	// representative's row is ever read again, so each row is scanned for
	// its finite entries when its clock turns out to be a representative,
	// and the clocks equal to it are among those entries.
	for i := range rep {
		rep[i] = -1
	}
	for i := range repBits {
		repBits[i] = 0
	}
	members := r.members
	for i := 0; i < n; i++ {
		if rep[i] != -1 {
			continue
		}
		rep[i] = i
		repBits[i/64] |= 1 << (i % 64)
		row := d.m[i*n : i*n+n]
		for wi := 0; wi < w; wi++ {
			var set uint64
			for t, b := range row[wi*64 : min(n, wi*64+64)] {
				x := uint64(uint32(b ^ Infinity)) // 0 iff b is ∞
				set |= (x | -x) >> 63 << (uint(t) & 63)
			}
			if wi == i/64 {
				set &^= 1 << (i % 64) // the diagonal
			}
			rowBits[i*w+wi] = set
		}
		members = members[:0]
		members = append(members, i)
		for wi := i / 64; wi < w; wi++ {
			for c := rowBits[i*w+wi]; c != 0; c &= c - 1 {
				j := wi*64 + bits.TrailingZeros64(c)
				if j > i && rep[j] == -1 && Add(row[j], d.m[j*n+i]) == LEZero {
					rep[j] = i
					members = append(members, j)
				}
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
	// colBits[j] gets the representatives k with a finite entry (k,j).
	for i := range colBits {
		colBits[i] = 0
	}
	for k := 0; k < n; k++ {
		if rep[k] != k {
			continue
		}
		for wj := 0; wj < w; wj++ {
			for c := rowBits[k*w+wj]; c != 0; c &= c - 1 {
				j := wj*64 + bits.TrailingZeros64(c)
				colBits[j*w+k/64] |= 1 << (k % 64)
			}
		}
	}

	// Phase 2: redundancy elimination on the representative quotient graph.
	// A finite constraint (i,j) between representatives is dropped when
	// some representative k ≠ i,j in row i's and column j's sets gives
	// d(i,k) + d(k,j) ≤ d(i,j). Rows i and columns j are visited in
	// ascending order, so the emission order matches the straight n³ scan
	// exactly.
	for i := 0; i < n; i++ {
		if rep[i] != i {
			continue
		}
		rowI := d.m[i*n : i*n+n]
		setI := rowBits[i*w : i*w+w]
		for wj := 0; wj < w; wj++ {
			for cj := setI[wj] & repBits[wj]; cj != 0; cj &= cj - 1 {
				j := wj*64 + bits.TrailingZeros64(cj)
				b := rowI[j]
				if i == 0 && b == LEZero {
					continue // implied by the base zone
				}
				setJ := colBits[j*w : j*w+w]
				redundant := false
			witness:
				for wk := range setI {
					for c := setI[wk] & setJ[wk]; c != 0; c &= c - 1 {
						k := wk*64 + bits.TrailingZeros64(c)
						if addFinite(rowI[k], d.m[k*n+j]) <= b {
							redundant = true
							break witness
						}
					}
				}
				if !redundant {
					buf = append(buf, Constraint{uint16(i), uint16(j), b})
				}
			}
		}
	}
	r.buf = buf // keep any growth for the next call
	cs := make([]Constraint, len(buf))
	copy(cs, buf)
	return &Compact{n: n, cs: cs}
}

// Inflate reconstructs the full canonical DBM the compact form was taken
// from. The result of inflating a non-empty zone is Equal to the original.
func (c *Compact) Inflate() *DBM {
	d := New(c.n)
	c.InflateInto(d)
	return d
}

// InflateInto overwrites d (which must have the compact form's dimension)
// with the reconstructed canonical zone and reports whether it is non-empty.
// It is the allocation-free variant of Inflate for scratch-buffer reuse.
//
// Re-canonicalization runs the pivot-restricted closure instead of the full
// O(n³) Close: in the constraint graph just built, the only vertices with
// outgoing finite edges are clock 0 (the base edges 0→j of New) and the
// source clocks of the stored constraints, so restricting the
// Floyd–Warshall pivots to that set is exact (see closePivots) and the cost
// drops to O(k·n²) for k distinct sources. This is the compact store's
// per-pop hot path.
func (c *Compact) InflateInto(d *DBM) bool {
	n := c.n
	if d.n != n {
		panic("dbm: dimension mismatch in InflateInto")
	}
	// Reset to the universal base zone (see New).
	for i := 0; i < n; i++ {
		row := d.m[i*n : i*n+n]
		if i == 0 {
			for j := range row {
				row[j] = LEZero
			}
			continue
		}
		for j := range row {
			row[j] = Infinity
		}
		row[i] = LEZero
	}
	pivots := uint64(1) // clock 0 always has outgoing base edges
	for _, cc := range c.cs {
		at := int(cc.I)*n + int(cc.J)
		if cc.B < d.m[at] {
			d.m[at] = cc.B
		}
		pivots |= 1 << uint(cc.I)
	}
	if n > 64 {
		return d.Close()
	}
	var ref *DBM
	if shadowCheck {
		ref = d.Clone()
	}
	ok := d.closePivots(pivots)
	if shadowCheck && (ref.Close() != ok || (ok && !d.Equal(ref))) {
		panic("dbm: pivot-restricted close diverges from full Close in InflateInto")
	}
	return ok
}

// IncludesDBM reports whether the compact zone is a superset of (or equal
// to) the canonical DBM o — the passed-list subsumption test, in
// O(constraints + n) with no inflation. Both must have equal dimension.
//
// Soundness: the compact zone C is the closure of its stored constraints
// over the universal base. For C ⊇ O it suffices that every stored
// constraint of C is at least as loose as O's corresponding entry — every
// derived entry of C is a shortest path over stored/base edges, each edge
// dominating O's entry, and O is closed so the path sum dominates O's direct
// entry — plus the base constraints xj ≥ 0, checked against row 0 of O.
// A store testing one zone against many compact zones checks the row-0 half
// (ClocksNonNegative) once and scans with IncludesNonNegative.
func (c *Compact) IncludesDBM(o *DBM) bool {
	return c.IncludesNonNegative(o) && o.ClocksNonNegative()
}

// ClocksNonNegative reports whether row 0 of d is within the base
// constraints xj ≥ 0, the half of IncludesDBM that depends on d alone.
func (d *DBM) ClocksNonNegative() bool {
	for _, b := range d.m[1:d.n] {
		if b > LEZero {
			return false // d allows xj < 0, which the base zone excludes
		}
	}
	return true
}

// IncludesNonNegative is IncludesDBM for an o already known to satisfy
// ClocksNonNegative: it checks only the stored constraints, in
// O(constraints).
func (c *Compact) IncludesNonNegative(o *DBM) bool {
	if c.n != o.n {
		panic("dbm: dimension mismatch in IncludesDBM")
	}
	for _, cc := range c.cs {
		if cc.B < o.m[int(cc.I)*c.n+int(cc.J)] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether the compact zone is a subset of (or equal to)
// the zone of the canonical DBM d, whose minimal form is dMin — the
// eviction direction of the passed-list subsumption test. dist is scratch
// space of at least n² bounds for dimension n; SubsetOf overwrites it and
// allocates nothing.
//
// zone(d) is the closure of the base constraints xj ≥ 0 and dMin's
// constraints, and every zone satisfies the base constraints, so c ⊆ d iff
// c satisfies every constraint (i, j, b) of dMin: iff the shortest path
// i ⇝ j in c's constraint graph — the base edges 0→j of weight ≤ 0 plus c's
// stored constraints — is at most b. Each such path comes from one
// single-source relaxation over those k + n edges (shortestFrom), kept in
// row i of dist for the other constraints of dMin with the same source, so
// c's closure is never built. Two cheap exits run first. Stored minimal
// constraints equal the closure entries at their positions, so one looser
// than d's entry there refutes the inclusion in O(k). And the empty-zone
// sentinel is a subset of everything.
func (c *Compact) SubsetOf(d *DBM, dMin *Compact, dist []Bound) bool {
	n := c.n
	if n != d.n || n != dMin.n {
		panic("dbm: dimension mismatch in SubsetOf")
	}
	for _, cc := range c.cs {
		if cc.B > d.m[int(cc.I)*n+int(cc.J)] {
			return false
		}
	}
	if c.isEmpty() {
		return true
	}
	dist = dist[:n*n]
	for i := 0; i < n; i++ {
		dist[i*n+i] = Infinity // row i not computed yet
	}
	for _, cc := range dMin.cs {
		i := int(cc.I)
		row := dist[i*n : i*n+n]
		if row[i] == Infinity {
			c.shortestFrom(i, row)
		}
		if row[cc.J] > cc.B {
			return false
		}
	}
	return true
}

// isEmpty reports whether c is the empty-zone sentinel x0 - x0 < 0.
func (c *Compact) isEmpty() bool {
	return len(c.cs) == 1 && c.cs[0] == Constraint{0, 0, LTZero}
}

// shortestFrom fills row with the shortest-path bounds from clock s in the
// constraint graph of c: the base edges 0→j of weight ≤ 0 plus the stored
// constraints. It is Bellman–Ford over those k + n edges. A non-empty
// minimal form has no negative cycle, so every shortest path has at most
// n-1 edges and n rounds settle it; row[s] ends at ≤ 0, never Infinity.
func (c *Compact) shortestFrom(s int, row []Bound) {
	for j := range row {
		row[j] = Infinity
	}
	row[s] = LEZero
	base := Infinity // the value of row[0] last pushed along the base edges
	for round, changed := 0, true; changed && round < c.n; round++ {
		changed = false
		if row[0] < base {
			base = row[0] // Add(base, LEZero) == base
			for j := 1; j < len(row); j++ {
				if base < row[j] {
					row[j] = base
					changed = true
				}
			}
		}
		for _, cc := range c.cs {
			if v := Add(row[cc.I], cc.B); v < row[cc.J] {
				row[cc.J] = v
				changed = true
			}
		}
	}
}

// Equal reports whether two compact forms are identical. Because the
// minimal form of a canonical zone is unique and Minimal emits constraints
// in a deterministic order, this coincides with zone equality for compacts
// produced by Minimal.
func (c *Compact) Equal(o *Compact) bool {
	if c.n != o.n || len(c.cs) != len(o.cs) {
		return false
	}
	for i, cc := range c.cs {
		if o.cs[i] != cc {
			return false
		}
	}
	return true
}
