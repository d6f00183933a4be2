package dbm

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// DBM is a difference-bound matrix of dimension n (clock 0 is the constant
// reference clock). The matrix is stored row-major: entry (i,j) at m[i*n+j]
// is the tightest known upper bound on xi - xj.
//
// All exported operations other than Close expect the matrix to be in
// canonical (closed) form and preserve canonicity, matching the discipline
// used by zone-based model checkers: the expensive O(n³) closure runs only
// when a batch of arbitrary edits (e.g. extrapolation) may have destroyed
// canonicity.
type DBM struct {
	n int
	m []Bound
}

// New returns the universal zone of dimension n (no constraints beyond
// xi - xi ≤ 0 and x0 = 0 being the reference), in canonical form... note
// that the universal zone still constrains clocks to be ≥ 0 via row 0.
func New(n int) *DBM {
	if n < 1 {
		panic("dbm: dimension must be >= 1")
	}
	d := &DBM{n: n, m: make([]Bound, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || i == 0 {
				// Diagonal ≤0; row 0 encodes 0 - xj ≤ 0, i.e. xj ≥ 0.
				d.m[i*n+j] = LEZero
			} else {
				d.m[i*n+j] = Infinity
			}
		}
	}
	return d
}

// Zero returns the zone where every clock equals 0 (the initial zone of a
// timed automaton), in canonical form.
func Zero(n int) *DBM {
	d := &DBM{n: n, m: make([]Bound, n*n)}
	for i := range d.m {
		d.m[i] = LEZero
	}
	return d
}

// Dim returns the dimension (number of clocks including the reference).
func (d *DBM) Dim() int { return d.n }

// At returns the bound on xi - xj.
func (d *DBM) At(i, j int) Bound { return d.m[i*d.n+j] }

// set assigns entry (i,j) without any canonicity maintenance.
func (d *DBM) set(i, j int, b Bound) { d.m[i*d.n+j] = b }

// Clone returns a deep copy.
func (d *DBM) Clone() *DBM {
	c := &DBM{n: d.n, m: make([]Bound, len(d.m))}
	copy(c.m, d.m)
	return c
}

// CopyFrom overwrites d with src (dimensions must match).
func (d *DBM) CopyFrom(src *DBM) {
	if d.n != src.n {
		panic("dbm: dimension mismatch in CopyFrom")
	}
	copy(d.m, src.m)
}

// Equal reports entry-wise equality. On canonical DBMs this coincides with
// zone equality.
func (d *DBM) Equal(o *DBM) bool {
	if d.n != o.n {
		return false
	}
	for i, b := range d.m {
		if o.m[i] != b {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the zone is inconsistent. On canonical DBMs
// emptiness manifests as a negative diagonal entry; we check entry (0,0),
// which every operation that can detect inconsistency (Close, Constrain,
// ConstrainUppers, the pivot-restricted closes) drives negative
// through markEmpty.
func (d *DBM) IsEmpty() bool { return d.m[0] < LEZero }

// markEmpty flags the zone as inconsistent.
func (d *DBM) markEmpty() { d.m[0] = LTZero }

// Close brings the matrix to canonical form with the Floyd–Warshall
// all-pairs shortest path algorithm and returns false if the zone is empty
// (negative cycle). O(n³).
func (d *DBM) Close() bool {
	n := d.n
	for k := 0; k < n; k++ {
		rowK := d.m[k*n : k*n+n]
		for i := 0; i < n; i++ {
			dik := d.m[i*n+k]
			if dik == Infinity {
				continue
			}
			rowI := d.m[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if s := Add(dik, rowK[j]); s < rowI[j] {
					rowI[j] = s
				}
			}
		}
		for i := 0; i < n; i++ {
			if d.m[i*n+i] < LEZero {
				d.markEmpty()
				return false
			}
		}
	}
	return true
}

// Constrain intersects the zone with the constraint xi - xj ≺ c (given as a
// Bound) and restores canonical form in O(n²), assuming the input was
// canonical. It returns false (and marks the zone empty) if the result is
// inconsistent.
func (d *DBM) Constrain(i, j int, b Bound) bool {
	n := d.n
	if b >= d.m[i*n+j] {
		return !d.IsEmpty() // no tightening needed
	}
	if Add(d.m[j*n+i], b) < LEZero {
		d.markEmpty()
		return false
	}
	d.m[i*n+j] = b
	// Re-close paths through the updated edge (i,j) only.
	for a := 0; a < n; a++ {
		dai := d.m[a*n+i]
		if dai == Infinity {
			continue
		}
		aib := Add(dai, b)
		rowA := d.m[a*n : a*n+n]
		rowJ := d.m[j*n : j*n+n]
		for c := 0; c < n; c++ {
			if rowJ[c] == Infinity {
				continue
			}
			if s := Add(aib, rowJ[c]); s < rowA[c] {
				rowA[c] = s
			}
		}
	}
	return true
}

// ConstrainUppers intersects the zone with every upper bound xI ≺ B of ups
// (each constraint's J must be 0; a clock may appear more than once) and
// restores canonical form, assuming the input was canonical. It returns
// false (and marks the zone empty) if the result is inconsistent. The
// result is the one a Constrain call per constraint would leave.
//
// Every new edge I→0 enters the reference vertex, so a shortest path uses
// at most one of them: the closed column 0 is
// u[a] = min(m[a][0], min over ups of m[a][I] + B), and the rest of row a
// becomes min(m[a][b], u[a] + m[0][b]). A negative cycle must pass through
// vertex 0, so the zone is empty iff m[0][I] + B < ≤0 for some bound
// (only a bound below m[I][0] can do that). Otherwise u[0] = ≤0 and row 0
// is unchanged, so each row can be updated in place from its own entries
// and row 0. O(n·k + n·c) for k bounds and c changed rows, against O(k·n²)
// for k Constrain calls, and O(k) when no bound is below its m[I][0].
func (d *DBM) ConstrainUppers(ups []Constraint) bool {
	if d.IsEmpty() {
		return false
	}
	n := d.n
	row0 := d.m[:n]
	tightens := false
	for _, c := range ups {
		if c.J != 0 {
			panic("dbm: ConstrainUppers needs upper bounds (J == 0)")
		}
		if c.B < d.m[int(c.I)*n] {
			tightens = true
			if Add(row0[c.I], c.B) < LEZero {
				d.markEmpty()
				return false
			}
		}
	}
	if !tightens {
		return true // the zone already satisfies every bound
	}
	for a := 1; a < n; a++ {
		rowA := d.m[a*n : a*n+n]
		u := rowA[0]
		for _, c := range ups {
			if s := Add(rowA[c.I], c.B); s < u {
				u = s
			}
		}
		if u == rowA[0] {
			continue
		}
		for b, r0 := range row0 {
			if s := Add(u, r0); s < rowA[b] {
				rowA[b] = s
			}
		}
	}
	return true
}

// Satisfiable reports whether intersecting with xi - xj ≺ c would leave the
// zone non-empty, without modifying it. Requires canonical form.
func (d *DBM) Satisfiable(i, j int, b Bound) bool {
	if d.IsEmpty() {
		return false
	}
	return Add(d.m[j*d.n+i], b) >= LEZero
}

// Up removes the upper bounds on all clocks (time elapse / delay
// operation). Preserves canonical form. O(n).
func (d *DBM) Up() {
	for i := 1; i < d.n; i++ {
		d.m[i*d.n+0] = Infinity
	}
}

// UpUnder is Up followed by ConstrainUppers(ups) — delay while the upper
// bounds ups (each J must be 0) hold — for a canonical zone that already
// satisfies them. Only column 0 changes: m[a][0] becomes the minimum over
// ups of m[a][I] + B (∞ if none is finite). Every other entry stays, since
// m[a][I] + B + m[0][b] ≥ m[a][I] + m[I][0] + m[0][b] ≥ m[a][b] held before
// the delay, and delay cannot empty the zone or break a constraint between
// two clocks. O(n·k) for k bounds, against O(k·n²) for k Constrain calls.
func (d *DBM) UpUnder(ups []Constraint) {
	n := d.n
	for a := 1; a < n; a++ {
		rowA := d.m[a*n : a*n+n]
		u := Infinity
		for _, c := range ups {
			if s := Add(rowA[c.I], c.B); s < u {
				u = s
			}
		}
		rowA[0] = u
	}
}

// Reset sets clock i to the non-negative constant v. Preserves canonical
// form. O(n).
func (d *DBM) Reset(i int, v int32) {
	n := d.n
	pos, neg := LE(v), LE(-v)
	for j := 0; j < n; j++ {
		d.m[i*n+j] = Add(pos, d.m[j]) // xi - xj ≤ v + (x0 - xj)
		d.m[j*n+i] = Add(d.m[j*n], neg)
	}
	d.m[i*n+i] = LEZero
}

// FreeClock removes all constraints on clock i except xi ≥ 0 (used by
// inactive-clock reduction to canonicalize don't-care clocks). Preserves
// canonical form. O(n).
func (d *DBM) FreeClock(i int) {
	n := d.n
	for j := 0; j < n; j++ {
		if j != i {
			d.m[i*n+j] = Infinity
			d.m[j*n+i] = d.m[j*n] // xj - xi ≤ xj - x0 since xi ≥ 0
		}
	}
	d.m[i*n] = Infinity
	d.m[i*n+i] = LEZero
	d.m[i] = LEZero
}

// Includes reports whether d's zone is a superset of (or equal to) o's.
// Both must be canonical and of equal dimension.
func (d *DBM) Includes(o *DBM) bool {
	if d.n != o.n {
		panic("dbm: dimension mismatch in Includes")
	}
	for i, b := range d.m {
		if b < o.m[i] {
			return false
		}
	}
	return true
}

// ExtrapolateMaxBounds applies classic max-bound (k-)extrapolation: bounds
// above the per-clock maximum constant are widened to infinity and lower
// bounds below -max are relaxed, guaranteeing a finite zone graph. max[i]
// is the largest constant clock i is ever compared against (use a negative
// value for "never compared"; max[0] is ignored). The matrix is re-closed.
// Returns false if the zone was already empty.
func (d *DBM) ExtrapolateMaxBounds(max []int32) bool {
	if d.IsEmpty() {
		return false
	}
	n := d.n
	if len(max) != n {
		panic("dbm: max bounds length mismatch")
	}
	// Every rewrite below RAISES (loosens) an entry, and the raises are
	// confined to the rows recorded in s, which is what lets closeRaised
	// re-canonicalize partially instead of running the full O(n³) Close.
	s := getRaiseScratch(n)
	for i := 1; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b := d.m[i*n+j]
			if b == Infinity {
				continue
			}
			switch {
			case max[i] < 0 || (b != Infinity && int64(b.Value()) > int64(max[i])):
				d.m[i*n+j] = Infinity
				s.mark(i)
			case max[j] >= 0 && int64(b.Value()) < int64(-max[j]):
				d.m[i*n+j] = LT(-max[j])
				s.mark(i)
			}
		}
	}
	// Row 0: lower bounds 0 - xj; relax those below -max[j].
	for j := 1; j < n; j++ {
		b := d.m[j]
		if b == Infinity {
			continue
		}
		if max[j] >= 0 && int64(b.Value()) < int64(-max[j]) {
			d.m[j] = LT(-max[j])
			s.mark(0)
		} else if max[j] < 0 && b < LEZero {
			d.m[j] = LEZero
			s.mark(0)
		}
	}
	if len(s.rows) == 0 {
		putRaiseScratch(s)
		return true
	}
	d.closeRaised(s)
	return true
}

// ExtrapolateLU applies the Extra-LU+ abstraction of Behrmann, Bouyer,
// Larsen and Pelánek ("Lower and Upper Bounds in Zone Based Abstractions of
// Timed Automata"): lower[i] is the largest constant clock i is compared
// against in lower-bound guards (x > c, x ≥ c) and upper[i] in upper-bound
// guards and invariants (x < c, x ≤ c), with -1 for "never". Extra-LU+ is
// sound and complete for reachability of diagonal-free timed automata and
// is strictly coarser than max-bound extrapolation, which improves
// subsumption dramatically on models with deadline-style clocks that only
// ever face upper bounds. The matrix is re-closed. Returns false if the
// zone was already empty.
func (d *DBM) ExtrapolateLU(lower, upper []int32) bool {
	if d.IsEmpty() {
		return false
	}
	n := d.n
	if len(lower) != n || len(upper) != n {
		panic("dbm: LU bounds length mismatch")
	}
	// Extra-LU+ only loosens entries (the row-0 rewrites replace a bound
	// known to be strictly tighter; see zoneLBExceeds), so the same
	// raise-confined partial re-canonicalization as in ExtrapolateMaxBounds
	// applies.
	//
	// Row 0 changes only in the final loop, so every predicate on it is
	// fixed up front: exceeds[j] is zoneLBExceeds(d, j, upper), and the
	// zone's lower bound on clock i decides row i as a whole. A row is
	// either widened entirely (no lower-bound guards on clock i, or a lower
	// bound above lower[i]) or only its finite entries are examined.
	s := getRaiseScratch(n)
	exceeds := s.exceeds
	for j := 1; j < n; j++ {
		exceeds[j] = zoneLBExceeds(d, j, upper)
	}
	for i := 1; i < n; i++ {
		row := d.m[i*n : i*n+n]
		li := int64(lower[i])
		wholeRow := li < 0 || (d.m[i] != Infinity && -int64(d.m[i].Value()) > li)
		raised := false
		for j, b := range row {
			if b == Infinity || j == i {
				continue
			}
			if wholeRow || int64(b.Value()) > li || (j != 0 && exceeds[j]) {
				row[j] = Infinity
				raised = true
			}
		}
		if raised {
			s.mark(i)
		}
	}
	for j := 1; j < n; j++ {
		if !exceeds[j] {
			continue
		}
		b := LEZero
		if upper[j] >= 0 {
			b = LT(-upper[j])
		}
		if d.m[j] != b {
			d.m[j] = b
			s.mark(0)
		}
	}
	if len(s.rows) == 0 {
		putRaiseScratch(s)
		return true
	}
	d.closeRaised(s)
	return true
}

// zoneLBExceeds reports whether the zone's lower bound on clock j exceeds
// upper[j] (with upper[j] < 0 meaning the clock has no upper-bound guards,
// so any positive lower bound exceeds it).
func zoneLBExceeds(d *DBM, j int, upper []int32) bool {
	b := d.m[j] // M[0][j], bound on -xj
	if b == Infinity {
		return true
	}
	lb := -int64(b.Value())
	if upper[j] < 0 {
		return lb > 0
	}
	return lb > int64(upper[j])
}

// Hash returns a 64-bit FNV-1a hash of the matrix contents. Canonical DBMs
// representing equal zones hash equally.
func (d *DBM) Hash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range d.m {
		buf[0] = byte(b)
		buf[1] = byte(b >> 8)
		buf[2] = byte(b >> 16)
		buf[3] = byte(b >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// AppendBytes appends a byte serialization of the matrix to dst, for use in
// composite hash keys.
func (d *DBM) AppendBytes(dst []byte) []byte {
	for _, b := range d.m {
		dst = append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return dst
}

// Contains reports whether the concrete valuation val (val[0] must be 0)
// lies inside the zone.
func (d *DBM) Contains(val []int64) bool {
	n := d.n
	if len(val) != n {
		panic("dbm: valuation length mismatch")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !d.m[i*n+j].SatisfiedBy(val[i] - val[j]) {
				return false
			}
		}
	}
	return true
}

// MemBytes returns the approximate heap footprint of the matrix in bytes,
// used by the explorer's space accounting.
func (d *DBM) MemBytes() int { return 4*len(d.m) + 24 }

// String renders the constraint system in human-readable form, omitting
// trivial entries.
func (d *DBM) String() string {
	if d.IsEmpty() {
		return "false"
	}
	var sb strings.Builder
	n := d.n
	first := true
	emit := func(s string) {
		if !first {
			sb.WriteString(" && ")
		}
		sb.WriteString(s)
		first = false
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := d.m[i*n+j]
			if i == j || b == Infinity {
				continue
			}
			op := "<"
			if b.IsWeak() {
				op = "<="
			}
			switch {
			case i == 0:
				if b == LEZero {
					continue // xj >= 0 is implicit
				}
				ge := ">"
				if b.IsWeak() {
					ge = ">="
				}
				emit(fmt.Sprintf("x%d%s%d", j, ge, -b.Value()))
			case j == 0:
				emit(fmt.Sprintf("x%d%s%d", i, op, b.Value()))
			default:
				emit(fmt.Sprintf("x%d-x%d%s%d", i, j, op, b.Value()))
			}
		}
	}
	if first {
		return "true"
	}
	return sb.String()
}
