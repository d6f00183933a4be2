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
	chunk  int     // matrices in the next slab; doubles up to arenaChunk
	bounds []Bound // remaining tail of the current matrix slab
	hdrs   []DBM   // remaining tail of the current header slab
}

// arenaChunk is the largest number of matrices per slab: 18 KiB at
// Fischer's n = 6, 200 KiB at the 5-batch plant's n = 20 and about 1 MiB
// at n = 45 (15 batches). An arena's first slab holds arenaFirst matrices
// and each further one twice as many as the last, until they reach
// arenaChunk: a short search or a witness replay, which holds a few
// matrices at a time, then carves them from a slab of its size instead of
// zeroing a full one, and a long search reaches full slabs after about
// arenaChunk matrices. A mostly-dead slab pinned by one live zone wastes
// at most one slab, against the zone free-list that keeps most slabs hot.
const (
	arenaFirst = 4
	arenaChunk = 128
)

// NewArena returns an arena producing DBMs of dimension n.
func NewArena(n int) *Arena {
	if n < 1 {
		panic("dbm: arena dimension must be >= 1")
	}
	return &Arena{n: n, chunk: arenaFirst}
}

// Dim returns the dimension of the DBMs the arena produces.
func (a *Arena) Dim() int { return a.n }

// Get returns a DBM of the arena's dimension with UNINITIALIZED matrix
// contents — the caller must fully overwrite it (CopyFrom, InflateInto)
// before use. Use New or Zero for an initialized matrix.
func (a *Arena) Get() *DBM {
	sz := a.n * a.n
	if len(a.bounds) < sz {
		// The header slab runs out together with the matrix slab: both
		// are cut to the same count.
		a.bounds = make([]Bound, sz*a.chunk)
		a.hdrs = make([]DBM, a.chunk)
		a.chunk = min(2*a.chunk, arenaChunk)
	}
	d := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	d.n = a.n
	d.m = a.bounds[:sz:sz]
	a.bounds = a.bounds[sz:]
	return d
}
