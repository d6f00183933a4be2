//go:build !race

package mc_test

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
