package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
)

// cacheKey derives the content address of a query: the job kind ("model"
// or "plant" — plant outcomes carry schedule and program artifacts that a
// plain model verdict must never alias), the canonical model sha256, and
// the normalized search options. Everything that can change the answer or
// the reported effort — order, store flavor, parallelism, limits — is part
// of the key; observability knobs (SnapshotEvery, Observer, Profile)
// deliberately are not.
func cacheKey(kind, modelSHA string, opts mc.Options) string {
	// Key on the canonical JSON of the normalized options — the same
	// encoding clients speak on the wire — so spellings of the same
	// configuration (Workers 0 vs 1, a worker count on the inherently
	// sequential BSH/BestTime orders) share an entry. Admission has
	// already validated the options, so canonicalization cannot fail here;
	// if it ever does, the raw marshal still forms a correct — merely less
	// collision-friendly — key.
	data, err := opts.CanonicalJSON()
	if err != nil {
		data, _ = json.Marshal(opts)
	}
	h := sha256.Sum256([]byte(kind + "|" + modelSHA + "|" + string(data)))
	return hex.EncodeToString(h[:])
}

// fifoMap is a string-keyed map bounded to max entries, evicting
// oldest-first. It is not safe for concurrent use; its owner locks.
type fifoMap[V any] struct {
	max   int
	m     map[string]V
	order []string
}

func newFIFOMap[V any](max int) fifoMap[V] {
	return fifoMap[V]{max: max, m: make(map[string]V)}
}

func (f *fifoMap[V]) get(key string) (V, bool) {
	v, ok := f.m[key]
	return v, ok
}

// add inserts key unless it is already present (the first value stays).
func (f *fifoMap[V]) add(key string, v V) {
	if _, ok := f.m[key]; ok {
		return
	}
	f.m[key] = v
	f.order = append(f.order, key)
	for len(f.order) > f.max {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
}

func (f *fifoMap[V]) len() int { return len(f.m) }

// cache is the content-addressed result store plus the singleflight table
// of in-flight executions. Both live under one lock so the
// hit/coalesce/miss decision and the completion handoff are atomic: a job
// either sees the settled outcome or is attached to the execution that
// will produce it — never neither. Settled outcomes are immutable and
// re-shared verbatim.
type cache struct {
	mu       sync.Mutex
	entries  fifoMap[*outcome]
	inflight map[string]*execution

	hits      int64
	misses    int64
	coalesces int64
}

func newCache(max int) *cache {
	return &cache{
		entries:  newFIFOMap[*outcome](max),
		inflight: make(map[string]*execution),
	}
}

// admit resolves a new job against the cache: a settled outcome (hit), an
// attachable in-flight execution (coalesce), or registration of ex as the
// new in-flight execution for its key (miss — the caller must then enqueue
// ex or call abandon). A canceled-but-unsettled in-flight execution is
// replaced rather than joined, so late arrivals never inherit a
// cancellation they did not request.
func (c *cache) admit(ex *execution, job *Job) (out *outcome, attached *execution, coalesced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if out, ok := c.entries.get(ex.key); ok {
		c.hits++
		return out, nil, false
	}
	if running, ok := c.inflight[ex.key]; ok && running.ctx.Err() == nil {
		if running.attach(job) {
			c.coalesces++
			return nil, running, true
		}
		// Settled between the entries check and attach: the settle path
		// runs outside this lock only for its job completions, so the
		// entry must be here now — unless the outcome was uncacheable, in
		// which case fall through to a fresh miss.
		if out, ok := c.entries.get(ex.key); ok {
			c.hits++
			return out, nil, false
		}
	}
	c.misses++
	ex.attach(job)
	c.inflight[ex.key] = ex
	return nil, ex, false
}

// settle records an execution's outcome, replacing its in-flight entry
// with a cache entry (when cacheable), and returns the jobs to notify.
func (c *cache) settle(ex *execution, out *outcome) []*Job {
	c.mu.Lock()
	if c.inflight[ex.key] == ex {
		delete(c.inflight, ex.key)
	}
	if out.cacheable() {
		c.entries.add(ex.key, out)
	}
	c.mu.Unlock()

	ex.mu.Lock()
	ex.settled = true
	jobs := ex.jobs
	ex.mu.Unlock()
	return jobs
}

// abandon removes a never-enqueued execution's in-flight registration
// (queue-full rejection).
func (c *cache) abandon(ex *execution) {
	c.mu.Lock()
	if c.inflight[ex.key] == ex {
		delete(c.inflight, ex.key)
	}
	c.mu.Unlock()
	ex.cancel()
}

// cancelInflight cancels every in-flight execution (drain deadline) and
// reports how many it hit.
func (c *cache) cancelInflight() int {
	c.mu.Lock()
	exs := make([]*execution, 0, len(c.inflight))
	for _, ex := range c.inflight {
		exs = append(exs, ex)
	}
	c.mu.Unlock()
	for _, ex := range exs {
		ex.cancel()
	}
	return len(exs)
}

func (c *cache) inflightCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// inflightKeys snapshots the in-flight cache keys (checkpoint GC must
// not delete a file a queued or running execution may still touch).
func (c *cache) inflightKeys() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.inflight))
	for key := range c.inflight {
		out[key] = true
	}
	return out
}

func (c *cache) status() CacheStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStatus{
		Entries:   c.entries.len(),
		Max:       c.entries.max,
		InFlight:  len(c.inflight),
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesces,
	}
	if total := c.hits + c.misses + c.coalesces; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	return st
}

// resolution is a request's resolved model identity: everything admission
// needs to compute the cache key.
type resolution struct {
	sha   string // tadsl.Hash of the model and its query
	query string
	// timeClock is the plant's GlobalClock, the BestTime TimeClock (0 for
	// tadsl models, whose clients name the clock in the options).
	timeClock int
}

// memo maps request identity to resolved identity, so a repeated request
// computes its cache key without building, parsing or hashing its model.
// A request's identity is the canonical JSON of its resolved plant
// configuration, or the sha256 of its tadsl source. Only models that
// resolved and hashed cleanly enter, and the memo is bounded like the
// result cache (Config.CacheSize, oldest-first).
type memo struct {
	mu sync.Mutex
	m  fifoMap[resolution]
}

func newMemo(max int) *memo { return &memo{m: newFIFOMap[resolution](max)} }

func (m *memo) get(id string) (resolution, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m.get(id)
}

func (m *memo) add(id string, r resolution) {
	m.mu.Lock()
	m.m.add(id, r)
	m.mu.Unlock()
}

func (m *memo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m.len()
}

// plantIdentity is the memo identity of a plant request: its resolved
// configuration as canonical JSON ("" — never memoized — in the
// impossible case that it does not encode).
func plantIdentity(cfg plant.Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return "plant|" + string(data)
}

// modelIdentity is the memo identity of a tadsl request: the sha256 of
// its source text.
func modelIdentity(src string) string {
	h := sha256.Sum256([]byte(src))
	return "model|" + string(h[:])
}
