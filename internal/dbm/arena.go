package dbm

// Arena is a chunk allocator for DBMs of one fixed dimension. Matrices are
// carved out of large []Bound slabs and headers out of []DBM slabs, so a
// search worker that materializes one zone per generated successor costs
// the allocator two bulk allocations per chunk instead of two small ones
// per zone — fewer malloc calls, fewer GC-scanned objects, and contiguous
// matrices for the cache.
//
// An Arena is not safe for concurrent use: the engine gives each worker
// context its own, which is also what keeps zone allocation contention-free
// under Options.Workers (workers share no allocator state, where a global
// free list would serialize them).
//
// There is no Put: arenas only grow, and reclaim relies on the caller's
// zone free list keeping chunks hot. A chunk is garbage once every zone
// carved from it is unreachable.
type Arena struct {
	n      int
	bounds []Bound // remaining tail of the current matrix slab
	hdrs   []DBM   // remaining tail of the current header slab
}

// arenaChunk is the number of matrices per slab: 18 KiB at Fischer's n = 6,
// 200 KiB at the 5-batch plant's n = 20 and about 1 MiB at n = 45 (15
// batches). A mostly-dead slab pinned by one live zone wastes at most that
// much, against the zone free-list that keeps most slabs hot.
const arenaChunk = 128

// NewArena returns an arena producing DBMs of dimension n.
func NewArena(n int) *Arena {
	if n < 1 {
		panic("dbm: arena dimension must be >= 1")
	}
	return &Arena{n: n}
}

// Dim returns the dimension of the DBMs the arena produces.
func (a *Arena) Dim() int { return a.n }

// Get returns a DBM of the arena's dimension with UNINITIALIZED matrix
// contents — the caller must fully overwrite it (CopyFrom, InflateInto)
// before use. Use New or Zero for an initialized matrix.
func (a *Arena) Get() *DBM {
	sz := a.n * a.n
	if len(a.bounds) < sz {
		a.bounds = make([]Bound, sz*arenaChunk)
	}
	if len(a.hdrs) == 0 {
		a.hdrs = make([]DBM, arenaChunk)
	}
	d := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	d.n = a.n
	d.m = a.bounds[:sz:sz]
	a.bounds = a.bounds[sz:]
	return d
}
