package mc

// bitTable is a 2-bits-per-state Holzmann supertrace table: a state is
// considered visited when both of its independently hashed bits are set.
// False positives prune reachable states (under-approximation); there are
// no false negatives, so any trace found is genuine. The search layer uses
// it through the bitStore adapter (see store.go), with a LIFO frontier:
// exactly UPPAAL's bit-state hashing option in the paper.
type bitTable struct {
	bits []uint64
	mask uint64
}

// newBitTable sizes the table to 2^hashBits bits; normalize has checked
// the range.
func newBitTable(hashBits int) *bitTable {
	size := uint64(1) << hashBits
	return &bitTable{bits: make([]uint64, size/64), mask: size - 1}
}

// fnv1a computes FNV-1a with a seeded offset basis, giving cheap
// independent hash functions.
func fnv1a(seed uint64, data []byte) uint64 {
	h := seed ^ 14695981039346656037
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// visit marks the state and reports whether it had already been seen
// (both bits set).
func (t *bitTable) visit(key []byte) bool {
	h1 := fnv1a(0, key) & t.mask
	h2 := fnv1a(0x9e3779b97f4a7c15, key) & t.mask
	seen := t.bits[h1/64]&(1<<(h1%64)) != 0 && t.bits[h2/64]&(1<<(h2%64)) != 0
	t.bits[h1/64] |= 1 << (h1 % 64)
	t.bits[h2/64] |= 1 << (h2 % 64)
	return seen
}

func (t *bitTable) memBytes() int64 { return int64(len(t.bits) * 8) }
