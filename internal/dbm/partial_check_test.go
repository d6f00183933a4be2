//go:build dbmcheck

package dbm

import (
	"math/rand"
	"testing"
)

// The shadow check must pass silently on correct partial closes (it
// panics on divergence, so surviving a workload is the assertion).
func TestPartialCloseCheckMode(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	scratch := New(5)
	maxB := []int32{0, 4, 4, 4, 4}
	for trial := 0; trial < 200; trial++ {
		d := randomZone(rng, 5)
		d.Minimal().InflateInto(scratch)
		d.ExtrapolateMaxBounds(maxB)
	}
}

// The shadow check must really be compiled in: a raise in a row the
// scratch does not mark breaks closeAfterRaise's precondition, so the
// partial close leaves the entry looser than the full Close does, and
// closeRaised must panic.
func TestShadowCheckPanicsOnUnmarkedRaise(t *testing.T) {
	d := Zero(3) // every clock 0: all entries (≤, 0)
	s := getRaiseScratch(3)
	d.m[1*3+2] = LE(5) // x1 - x2 ≤ 5; the full Close restores ≤ 0 via x0
	s.mark(2)          // but only row 2 is declared touched
	defer func() {
		if recover() == nil {
			t.Fatalf("closeRaised accepted a raise outside the marked rows\nresult: %s", d)
		}
	}()
	d.closeRaised(s)
}
