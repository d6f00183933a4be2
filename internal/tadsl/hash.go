package tadsl

import (
	"crypto/sha256"
	"encoding/hex"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

// Hash returns the content identity of a model: the hex sha256 digest of
// its canonical tadsl serialization (Write), covering the system and, when
// given, the query. Two models hash equal exactly when they serialize
// identically, so the digest is a stable cache and comparison key: the run
// reports of cmd/ tools and the serve result cache both use it. The text
// is streamed from Write's printer straight into the digest, a few
// kilobytes at a time, and never held whole.
func Hash(sys *ta.System, goal *mc.Goal) (string, error) {
	h := sha256.New()
	if err := Write(h, sys, goal); err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}
