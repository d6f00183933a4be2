//go:build !dbmcheck

package dbm

// shadowCheck makes every partial close (closeRaised, InflateInto) also
// run a full Close on a copy and panic on any entry mismatch. It is a
// constant so that normal builds compile the check out; build with
// -tags dbmcheck to turn it on.
const shadowCheck = false
