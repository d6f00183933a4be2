package dbm

// This file implements the partial re-canonicalization machinery that keeps
// the compact-store hot path off the O(n³) Floyd–Warshall bill:
//
//   - closePivots restores canonical form when shortest paths can only pass
//     through a known small set of intermediate vertices. InflateInto uses
//     it: in the constraint graph of a minimal-constraint zone over the
//     universal base, the only vertices with outgoing finite edges are the
//     reference clock 0 (base edges 0→j) and the source clocks of stored
//     constraints, so a Floyd–Warshall pass restricted to those pivots is
//     exact in O(k·n²) instead of O(n³).
//
//   - closeAfterRaise restores canonical form after a batch of entries was
//     RAISED (loosened), with the raises confined to a set of touched rows —
//     exactly what extrapolation does. Raising entries cannot invalidate any
//     untouched entry: for a non-raised entry (i,j), the new closure c
//     satisfies c[i][j] ≤ d[i][j] (the entry is itself an edge) and
//     c[i][j] ≥ old closure[i][j] = d[i][j] (every edge weight only grew),
//     so c[i][j] = d[i][j]. Only entries in touched rows need recomputation,
//     and any shortest path from a touched row decomposes at its FIRST
//     untouched intermediate u: a prefix whose intermediates are all touched
//     (edges all lie in touched rows), then the exact, already-canonical
//     row of u. Phase A below computes the prefixes (Floyd–Warshall with
//     touched pivots over touched source rows); phase B relaxes once
//     through every untouched intermediate. Cost O(t²·n + t·n²) for t
//     touched rows against O(n³) for a full Close. Raises cannot create a
//     negative cycle, so the zone stays non-empty by construction.
//
// Both operations are exact — they produce the same matrix as a full
// Close() — and both can be disabled (SetPartialClose) or cross-checked
// entry-for-entry against full Close on every call (SetPartialCloseCheck,
// also enabled by the GUIDEDTA_DBM_CHECK environment variable), which is
// how the differential fuzz harness pins their equivalence on random
// networks.

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

var (
	// partialDisabled forces every partial re-canonicalization through the
	// full O(n³) Close instead — the escape hatch and the differential-fuzz
	// reference configuration. Process-wide; meant to be set once before
	// searches run (concurrent searches read it without synchronization
	// beyond the atomic).
	partialDisabled atomic.Bool
	// partialCheck makes every partial close ALSO run a full Close on a
	// copy and panic on any entry mismatch — the debug assertion mode.
	partialCheck atomic.Bool
)

func init() {
	if os.Getenv("GUIDEDTA_DBM_CHECK") != "" {
		partialCheck.Store(true)
	}
}

// SetPartialClose enables (default) or disables partial re-canonicalization
// package-wide. With it disabled, InflateInto and the extrapolation
// operations re-close with the full Floyd–Warshall pass; results are
// identical either way — the knob exists so differential test harnesses can
// run the same search both ways and compare.
func SetPartialClose(enabled bool) { partialDisabled.Store(!enabled) }

// SetPartialCloseCheck toggles the assertion mode: every partial close is
// cross-checked entry-for-entry against a full Close and panics on
// divergence. Expensive; for tests and fuzz campaigns. Also enabled by
// setting the GUIDEDTA_DBM_CHECK environment variable.
func SetPartialCloseCheck(enabled bool) { partialCheck.Store(enabled) }

// PartialCloseEnabled reports whether partial re-canonicalization is active.
func PartialCloseEnabled() bool { return !partialDisabled.Load() }

// closePivots brings the matrix to canonical form assuming every vertex
// with an outgoing finite edge (other than trivially the diagonal) has its
// bit set in mask (vertex v ↦ bit v, so it only serves dimensions ≤ 64).
// Under that precondition a shortest path can only pass through mask
// vertices, so the Floyd–Warshall pass restricted to those pivot
// intermediates is exact; and every vertex of a negative cycle has an
// outgoing finite edge, so the cycle lies within the pivot set and the
// usual diagonal check detects emptiness. O(popcount(mask)·n²).
func (d *DBM) closePivots(mask uint64) bool {
	n := d.n
	if d.m[0] < LEZero {
		// Already marked empty (e.g. the empty-zone sentinel constraint).
		d.markEmpty()
		return false
	}
	for k := 0; k < n; k++ {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		rowK := d.m[k*n : k*n+n]
		for i := 0; i < n; i++ {
			dik := d.m[i*n+k]
			if dik == Infinity || i == k {
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

// raiseScratch is the reusable buffer set of one partial close after a
// raising operation (extrapolation): the touched-row set, ExtrapolateLU's
// per-column predicate and, in check mode, the full-Close reference copy.
// Pooled because extrapolation runs once per generated successor.
type raiseScratch struct {
	touched []bool
	exceeds []bool
	rows    []int
	ref     *DBM
}

var raisePool = sync.Pool{New: func() any { return new(raiseScratch) }}

func getRaiseScratch(n int) *raiseScratch {
	s := raisePool.Get().(*raiseScratch)
	if cap(s.touched) < n {
		s.touched = make([]bool, n)
		s.exceeds = make([]bool, n)
		s.rows = make([]int, 0, n)
	}
	s.touched = s.touched[:n]
	s.exceeds = s.exceeds[:n]
	for i := range s.touched {
		s.touched[i] = false
	}
	s.rows = s.rows[:0]
	return s
}

func putRaiseScratch(s *raiseScratch) { raisePool.Put(s) }

// mark records row i as containing at least one raised entry.
func (s *raiseScratch) mark(i int) {
	if !s.touched[i] {
		s.touched[i] = true
		s.rows = append(s.rows, i)
	}
}

// closeRaised restores canonical form after entries confined to the rows in
// s were raised, releasing s. It dispatches on the package knobs: partial
// close by default, full Close when disabled, and the entry-for-entry
// cross-check in assertion mode. The zone cannot have become empty (weights
// only grew), so there is no emptiness result to report.
func (d *DBM) closeRaised(s *raiseScratch) {
	defer putRaiseScratch(s)
	if partialDisabled.Load() {
		d.Close()
		return
	}
	if partialCheck.Load() {
		if s.ref == nil || s.ref.n != d.n {
			s.ref = d.Clone()
		} else {
			s.ref.CopyFrom(d)
		}
		d.closeAfterRaise(s.touched, s.rows)
		if !s.ref.Close() {
			panic("dbm: raise emptied a zone (closeAfterRaise precondition violated)")
		}
		if !d.Equal(s.ref) {
			panic(fmt.Sprintf("dbm: partial close diverges from full Close\npartial: %v\nfull:    %v", d, s.ref))
		}
		return
	}
	d.closeAfterRaise(s.touched, s.rows)
}

// closeAfterRaise is the two-phase partial closure described in the file
// comment: phase A computes shortest paths from touched rows whose
// intermediates are all touched (Floyd–Warshall restricted to touched
// pivots and touched source rows); phase B relaxes each touched row once
// through every untouched intermediate, whose rows are still exactly
// canonical. Exact for raises confined to the given rows.
func (d *DBM) closeAfterRaise(touched []bool, rows []int) {
	n := d.n
	// Phase A: prefix paths through touched intermediates only.
	for _, p := range rows {
		rowP := d.m[p*n : p*n+n]
		for _, i := range rows {
			if i == p {
				continue
			}
			dip := d.m[i*n+p]
			if dip == Infinity {
				continue
			}
			rowI := d.m[i*n : i*n+n]
			for j := 0; j < n; j++ {
				if s := Add(dip, rowP[j]); s < rowI[j] {
					rowI[j] = s
				}
			}
		}
	}
	// Phase B: one relaxation through each untouched intermediate.
	for _, i := range rows {
		rowI := d.m[i*n : i*n+n]
		for u := 0; u < n; u++ {
			if touched[u] || u == i {
				continue
			}
			diu := rowI[u]
			if diu == Infinity {
				continue
			}
			rowU := d.m[u*n : u*n+n]
			for j := 0; j < n; j++ {
				if s := Add(diu, rowU[j]); s < rowI[j] {
					rowI[j] = s
				}
			}
		}
	}
}
