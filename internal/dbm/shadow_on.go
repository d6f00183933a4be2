//go:build dbmcheck

package dbm

// shadowCheck is on: every partial close is cross-checked against a full
// Close (see partial.go).
const shadowCheck = true
