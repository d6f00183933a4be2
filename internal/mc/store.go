package mc

import (
	"sort"
	"sync"
	"sync/atomic"

	"guidedta/internal/dbm"
)

// storeStats is a snapshot of a stateStore's bookkeeping.
type storeStats struct {
	count       int   // states currently stored
	discrete    int   // distinct discrete states (0 when the store cannot tell)
	bytes       int64 // accounted heap bytes of the store, including stored nodes
	evictions   int64 // nodes evicted by a subsuming newcomer
	constraints int64 // total stored minimal constraints (compact store only)
}

// stateStore is the passed-store seam of the search layer: it deduplicates
// (and, with inclusion checking, subsumes) symbolic states. add reports
// whether the state was new; a false return means the caller may drop the
// node entirely.
type stateStore interface {
	add(key []byte, n *node) bool
	stats() storeStats
	// retainsNodes reports whether added nodes stay referenced by the store
	// after leaving the frontier (PWList semantics). It drives the memory
	// accounting: retained nodes are counted once in the store, and the
	// frontier adds only per-entry overhead; non-retaining stores (the bit
	// table) leave the node bytes on the frontier's account.
	retainsNodes() bool
}

// localStore is a single-threaded stateStore that shardedStore can stripe:
// it exposes its byte and discrete-state counters so the wrapper can
// maintain lock-free aggregates, plus the checkpoint seam — deterministic
// iteration for saves and an unconditional seed path for resumes.
type localStore interface {
	stateStore
	byteCount() int64
	discreteCount() int
	// forEachNode visits every stored node in a deterministic order:
	// buckets in sorted key order, entries in bucket insertion order. The
	// checkpoint writer serializes entries in this order and the seed path
	// replays them in it, which reproduces every bucket's antichain scan
	// order exactly — the invariant behind bit-identical resume.
	forEachNode(fn func(n *node))
	// seed inserts a restored node with no subsumption checks (the saved
	// store already was an antichain), replicating add's accounting.
	seed(key []byte, n *node)
	// setEvictions restores the eviction counter of a resumed store so
	// cumulative stats match an uninterrupted run.
	setEvictions(v int64)
}

// bucketOverhead is the accounted per-discrete-state overhead of a store
// bucket: the interned key string header, the bucket struct, and map-entry
// amortization.
const bucketOverhead = 48

// bucket is one discrete state's entry in a passed store, as in UPPAAL's
// PWList: the antichain of the state's zones, whose nodes share one copy
// of its location vector and integer store. The first node stored in a
// bucket keeps its own; every later one is repointed at the copy its
// stored nodes share (its own goes back to the inserting worker, see
// engineCtx.offer), so the stored zones of one discrete state carry no
// copy of it. A shared array is never written again, so it stays valid
// for every node that points at it, evicted ones included. mapStore keeps
// nodes as entries, compactStore compact entries.
type bucket[E storeEntry] struct {
	entries []E
}

// storeEntry is a bucket entry: it leads to its stored node.
type storeEntry interface {
	storedNode() *node
}

func (n *node) storedNode() *node        { return n }
func (e compactEntry) storedNode() *node { return e.n }

// bucketOf returns key's bucket, creating it on first sight of the
// discrete state: the key string is interned, and the key and n's
// discrete part, which becomes the one the bucket's nodes share, are
// charged to *bytes here, once per bucket.
func bucketOf[E storeEntry](m map[string]*bucket[E], key []byte, n *node, bytes *int64) *bucket[E] {
	b := m[string(key)] // compiler-optimized: no key allocation
	if b == nil {
		b = &bucket[E]{}
		m[string(key)] = b // interns the key string, once per discrete state
		*bytes += int64(len(key)) + bucketOverhead + n.discreteBytes()
	}
	return b
}

// share points n, which is about to be inserted, at the discrete part the
// bucket's stored nodes share; the first node of a bucket keeps its own,
// and later nodes share that. Calling it again is harmless.
func (b *bucket[E]) share(n *node) {
	if len(b.entries) > 0 {
		first := b.entries[0].storedNode()
		n.locs, n.env = first.locs, first.env
	}
}

// mapStore is the map-backed passed/waiting store (UPPAAL's PWList): per
// discrete state, an antichain of maximal zones (with inclusion checking)
// or a plain list (without). Nodes evicted by a subsuming newcomer are
// flagged so the frontier drops them when they surface. Buckets are held by
// pointer so the hot path does a single no-allocation map lookup and
// mutates the bucket in place. Not safe for concurrent use; shardedStore
// wraps it for the parallel search.
type mapStore struct {
	byKey     map[string]*bucket[*node]
	inclusion bool
	count     int
	bytes     int64
	evictions int64
}

func newMapStore(inclusion bool) *mapStore {
	return &mapStore{byKey: make(map[string]*bucket[*node]), inclusion: inclusion}
}

// mapEntryBytes is the accounted footprint of one mapStore entry: the zone
// matrix and the node struct (the discrete part is its bucket's).
func mapEntryBytes(n *node) int64 {
	return int64(n.zone.MemBytes()) + nodeOverhead
}

// add inserts the state unless it is subsumed; it reports whether the state
// was new. With inclusion checking, stored states whose zones the new one
// subsumes are evicted (and marked, so the frontier drops them) to keep
// only maximal zones.
//
// The scan is two-pass: rejection first, eviction only for survivors. The
// split changes nothing — "some old includes new" and "new strictly includes
// some other old" cannot both hold, because the antichain invariant would
// make those two old zones comparable — but it keeps the eviction-direction
// inclusion test entirely off the hot rejection path, where most candidates
// die. compactStore.add relies on the same argument.
func (p *mapStore) add(key []byte, n *node) bool {
	b := bucketOf(p.byKey, key, n, &p.bytes)
	if p.inclusion {
		for _, old := range b.entries {
			if old.zone.Includes(n.zone) {
				return false
			}
		}
		b.share(n) // before the evictions, which may empty the bucket
		kept := b.entries[:0]
		for _, old := range b.entries {
			if n.zone.Includes(old.zone) {
				// All reads of the evicted node precede the subsumed flag:
				// the atomic store is the release point after which the
				// popping worker may recycle the node and its zone.
				p.count--
				p.bytes -= mapEntryBytes(old)
				p.evictions++
				old.subsumed.Store(true)
				continue
			}
			kept = append(kept, old)
		}
		b.entries = kept
	} else {
		for _, old := range b.entries {
			if old.zone.Equal(n.zone) {
				return false
			}
		}
	}
	p.insert(b, n)
	return true
}

func (p *mapStore) insert(b *bucket[*node], n *node) {
	b.share(n)
	b.entries = append(b.entries, n)
	p.count++
	p.bytes += mapEntryBytes(n)
}

func (p *mapStore) stats() storeStats {
	return storeStats{count: p.count, discrete: len(p.byKey), bytes: p.bytes, evictions: p.evictions}
}

func (p *mapStore) retainsNodes() bool { return true }

func (p *mapStore) byteCount() int64   { return p.bytes }
func (p *mapStore) discreteCount() int { return len(p.byKey) }

// forEachNode implements the localStore checkpoint seam (see there).
func (p *mapStore) forEachNode(fn func(n *node)) {
	for _, k := range sortedKeys(p.byKey) {
		for _, n := range p.byKey[k].entries {
			fn(n)
		}
	}
}

// seed implements the localStore checkpoint seam: mapStore.add minus the
// inclusion scans, with identical accounting.
func (p *mapStore) seed(key []byte, n *node) {
	p.insert(bucketOf(p.byKey, key, n, &p.bytes), n)
}

func (p *mapStore) setEvictions(v int64) { p.evictions = v }

// sortedKeys returns the bucket keys of a store map in sorted order, the
// deterministic iteration order of checkpoint saves.
func sortedKeys[B any](m map[string]B) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compactStore is the memory-lean variant of mapStore: passed zones are
// kept in minimal-constraint form (dbm.Compact) instead of as full O(n²)
// matrices. On insert the minimal form is attached to the node (node.czone)
// so the search loop can release the full DBM the moment the node is parked
// on the frontier and rebuild it — exactly, by the round-trip property —
// when the node is popped for expansion. At any instant only the states
// actually being expanded hold O(n²) matrices. Subsumption decisions are
// exactly those of mapStore — IncludesDBM and SubsetOf are exact inclusion
// tests in both directions — so a search over a compactStore visits states
// in the identical order and finds the identical trace.
//
// Every entry keeps its node — that is PWList semantics, minus the zone
// matrix: the node stays live for trace reconstruction and eviction
// flagging, while its matrix lives only on the frontier briefly.
type compactStore struct {
	byKey       map[string]*bucket[compactEntry]
	inclusion   bool
	count       int
	bytes       int64
	evictions   int64
	constraints int64
	red         dbm.Reducer // scratch-backed Minimal, one exact-size alloc per insert
	dist        []dbm.Bound // SubsetOf shortest-path scratch, lazily sized
}

type compactEntry struct {
	z *dbm.Compact
	n *node
	// rows caches z.RowMask(), the necessary condition gating the
	// eviction-direction inclusion test (see compactStore.add).
	rows uint64
}

func newCompactStore(inclusion bool) *compactStore {
	return &compactStore{byKey: make(map[string]*bucket[compactEntry]), inclusion: inclusion}
}

// compactEntryOverhead is the accounted per-entry struct overhead.
const compactEntryOverhead = 24

// add mirrors mapStore.add (same two-pass antichain semantics, hence
// identical search behavior), operating on compact zones. The hot rejection
// path checks the newcomer's row 0 once and then costs O(constraints) per
// stored entry: the Minimal() reduction and the eviction scan run only for
// states that survive it (by the antichain argument on mapStore.add,
// rejected candidates never evict). The eviction pass tests old ⊆ new
// against the constraints of Minimal(new), one shortest path in old's
// constraint graph each (Compact.SubsetOf). RowMask inclusion is a necessary
// condition for it — each of those paths leaves its source row through a
// stored edge of old (see Compact.RowMask for why no column analogue
// exists) — so SubsetOf runs only when the masks allow a subset.
func (p *compactStore) add(key []byte, n *node) bool {
	b := bucketOf(p.byKey, key, n, &p.bytes)
	if p.inclusion {
		if n.zone.ClocksNonNegative() {
			for _, old := range b.entries {
				if old.z.IncludesNonNegative(n.zone) {
					return false
				}
			}
		}
		b.share(n) // before the evictions, which may empty the bucket
		cn := p.red.Minimal(n.zone)
		newRows := cn.RowMask()
		if dim := n.zone.Dim(); len(p.dist) < dim*dim {
			p.dist = make([]dbm.Bound, dim*dim)
		}
		kept := b.entries[:0]
		for _, old := range b.entries {
			if newRows&^old.rows == 0 && old.z.SubsetOf(n.zone, cn, p.dist) {
				// All reads of the evicted node precede the subsumed flag:
				// the atomic store is the release point after which the
				// popping worker may recycle the node and its zone.
				p.count--
				p.bytes -= compactEntryBytes(old.z)
				p.constraints -= int64(old.z.Len())
				p.evictions++
				old.n.subsumed.Store(true)
				continue
			}
			kept = append(kept, old)
		}
		b.entries = kept
		p.insert(b, cn, n)
		return true
	}
	cn := p.red.Minimal(n.zone)
	for _, old := range b.entries {
		if old.z.Equal(cn) {
			return false
		}
	}
	p.insert(b, cn, n)
	return true
}

// compactEntryBytes is the accounted footprint of one compact entry: the
// minimal constraints, entry overhead, and the node struct. The zone
// matrix is deliberately absent — it is released to the free-list while the
// node waits and exists only transiently during expansion — and so is the
// discrete part, which is its bucket's.
func compactEntryBytes(z *dbm.Compact) int64 {
	return int64(z.MemBytes()) + compactEntryOverhead + nodeOverhead
}

func (p *compactStore) insert(b *bucket[compactEntry], z *dbm.Compact, n *node) {
	b.share(n)
	n.czone = z
	b.entries = append(b.entries, compactEntry{z: z, n: n, rows: z.RowMask()})
	p.count++
	p.bytes += compactEntryBytes(z)
	p.constraints += int64(z.Len())
}

func (p *compactStore) stats() storeStats {
	return storeStats{
		count: p.count, discrete: len(p.byKey), bytes: p.bytes,
		evictions: p.evictions, constraints: p.constraints,
	}
}

func (p *compactStore) retainsNodes() bool { return true }

func (p *compactStore) byteCount() int64   { return p.bytes }
func (p *compactStore) discreteCount() int { return len(p.byKey) }

// forEachNode implements the localStore checkpoint seam (see there). The
// yielded nodes carry their minimal-constraint zones in node.czone.
func (p *compactStore) forEachNode(fn func(n *node)) {
	for _, k := range sortedKeys(p.byKey) {
		for _, e := range p.byKey[k].entries {
			fn(e.n)
		}
	}
}

// seed implements the localStore checkpoint seam: compactStore.add minus
// the reduction (the restored node already carries its minimal form in
// node.czone) and the inclusion scans, with identical accounting.
func (p *compactStore) seed(key []byte, n *node) {
	p.insert(bucketOf(p.byKey, key, n, &p.bytes), n.czone, n)
}

func (p *compactStore) setEvictions(v int64) { p.evictions = v }

// bitStore adapts the 2-bit Holzmann supertrace table to the stateStore
// seam: only hashes are stored, so there is no inclusion checking and
// popped nodes are not retained.
type bitStore struct {
	table *bitTable
	count int
}

func (b *bitStore) add(key []byte, n *node) bool {
	if b.table.visit(key) {
		return false
	}
	b.count++
	return true
}

func (b *bitStore) stats() storeStats {
	return storeStats{count: b.count, bytes: b.table.memBytes()}
}

func (b *bitStore) retainsNodes() bool { return false }

// storeShards is the shard count of the lock-striped store (a power of
// two). 64 shards keep contention negligible for any realistic worker
// count while the per-shard maps stay dense.
const storeShards = 64

// shardedStore is the concurrent stateStore of the parallel search: keys
// hash to one of storeShards localStores (map-backed or compact, chosen by
// the constructor), each behind its own mutex, so workers adding states in
// disjoint regions of the state space never contend. The byte total is
// mirrored in an atomic so the memory-limit check never takes a lock.
type shardedStore struct {
	shards     [storeShards]storeShard
	totalBytes atomic.Int64
}

type storeShard struct {
	mu sync.Mutex
	m  localStore
	// padding to keep shard mutexes on separate cache lines.
	_ [40]byte
}

// newShardedStore builds the striped store; newShard creates one
// single-threaded shard (called once per shard).
func newShardedStore(newShard func() localStore) *shardedStore {
	s := &shardedStore{}
	for i := range s.shards {
		s.shards[i].m = newShard()
	}
	return s
}

// shardOf picks the shard for a key; the seed differs from the bit-state
// hash seeds so BSH tables and shard selection stay independent.
func shardOf(key []byte) int {
	return int(fnv1a(0x517cc1b727220a95, key) & (storeShards - 1))
}

func (s *shardedStore) add(key []byte, n *node) bool {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	before := sh.m.byteCount()
	ok := sh.m.add(key, n)
	delta := sh.m.byteCount() - before
	sh.mu.Unlock()
	if delta != 0 {
		s.totalBytes.Add(delta)
	}
	return ok
}

func (s *shardedStore) stats() storeStats {
	var total storeStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.m.stats()
		sh.mu.Unlock()
		total.count += st.count
		total.discrete += st.discrete
		total.bytes += st.bytes
		total.evictions += st.evictions
		total.constraints += st.constraints
	}
	return total
}

func (s *shardedStore) retainsNodes() bool { return true }

// memBytes returns the accounted byte total without locking any shard, for
// the workers' periodic memory-limit checks.
func (s *shardedStore) memBytes() int64 { return s.totalBytes.Load() }

// forEachNode visits every stored node, shards in index order and each
// shard in its localStore's deterministic order. Callers must be quiesced
// (no concurrent adds); the checkpoint writer runs it only with every
// worker parked at the quiesce barrier or joined.
func (s *shardedStore) forEachNode(fn func(n *node)) {
	for i := range s.shards {
		s.shards[i].m.forEachNode(fn)
	}
}

// seed routes a restored node to its shard's seed path, mirroring the byte
// delta into the lock-free total like add.
func (s *shardedStore) seed(key []byte, n *node) {
	sh := &s.shards[shardOf(key)]
	before := sh.m.byteCount()
	sh.m.seed(key, n)
	s.totalBytes.Add(sh.m.byteCount() - before)
}

// setEvictions restores the aggregate eviction counter (parked on shard 0;
// stats() sums across shards, so the split is unobservable).
func (s *shardedStore) setEvictions(v int64) { s.shards[0].m.setEvictions(v) }

// occupancy returns the per-shard discrete-state counts, the Profile
// observability hook for shard balance.
func (s *shardedStore) occupancy() []int {
	occ := make([]int, storeShards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		occ[i] = sh.m.discreteCount()
		sh.mu.Unlock()
	}
	return occ
}
