//go:build race

package mc_test

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation counts of code using one are not fixed.
const raceEnabled = true
