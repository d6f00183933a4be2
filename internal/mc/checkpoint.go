package mc

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/dbm"
	"guidedta/internal/snapshot"
)

// CheckpointOptions configures durable checkpoint/resume of a search (see
// Options.Checkpoint). A checkpoint captures the passed store, the
// frontier in exact order, the retained search tree, and cumulative stats
// at a safe point between state expansions; resuming from it continues the
// exploration to the same verdict and — for sequential runs — the
// bit-identical witness trace an uninterrupted run would have produced.
type CheckpointOptions struct {
	// Path is the checkpoint file. Setting it enables checkpointing: a
	// final snapshot is written whenever the search aborts (timeout,
	// cancellation — e.g. a serve drain —, state or memory limit), and the
	// file is removed when the search completes with an answer. Not
	// supported for the BSH order (the bit table stores only hashes).
	Path string
	// Interval additionally writes periodic snapshots every Interval of
	// search time (0 = abort-time snapshots only). The parallel search
	// quiesces its workers at a barrier for each write; the sequential
	// search writes at the top of its expansion loop.
	Interval time.Duration
	// Resume seeds the search from an existing checkpoint at Path instead
	// of the initial state. A missing file falls back to a fresh start; a
	// corrupt, truncated, version-mismatched, or wrong-model/wrong-options
	// checkpoint fails the run with an error wrapping ErrResume. The
	// options check ignores the run limits (MaxStates, MaxMemory,
	// Timeout): a checkpoint left by a limit abort resumes under a higher
	// limit or none. MaxStates counts the states explored before the
	// interruption too; Timeout runs from the resumed run's start.
	Resume bool
	// ModelSHA, when set, is recorded in checkpoints and verified on
	// resume — the canonical model digest (tadsl.Hash) of the layer that
	// knows the model's source form. Empty disables the check. It is not
	// part of the canonical options JSON.
	ModelSHA string
	// KeepFinal writes (and keeps) a final snapshot when the search finds
	// its goal, instead of removing the file; a run that completes without
	// finding it removes the file as usual, since it has no goal state to
	// replay. The snapshot is the witness path alone, whether the run
	// searched or replayed a warm-start seed's witness: the nodes from the
	// initial state to the goal with their parent, depth and transition,
	// the goal its one store entry and the only node carrying a state, no
	// frontier and no search statistics. It is a warm-start seed for
	// nearly-identical later queries (Options.WarmStart), not a resume
	// point: it is stamped Final and the resume path refuses it, since a
	// search resumed from a frontierless path would end negative.
	KeepFinal bool
	// Meta is an opaque advisory label stamped into the checkpoint header
	// (snapshot.Header.Meta). The serving layer records the cache-key kind
	// here so checkpoint files can be grouped into warm-start families by
	// header alone. Never interpreted by the engine.
	Meta string
}

func (c CheckpointOptions) enabled() bool { return c.Path != "" }

// ErrResume wraps every checkpoint-resume failure (corrupt or truncated
// file, format version mismatch, wrong model, wrong options), so callers
// that own the checkpoint lifecycle — mcserved deletes the file and reruns
// from scratch — can distinguish it from model or engine errors.
var ErrResume = errors.New("mc: checkpoint resume failed")

// checkpointer is the per-run checkpoint state shared by the sequential
// and parallel searches: the write/resume bookkeeping plus the periodic
// request flag a ticker goroutine raises (sampler-style) and the search
// loop consumes at its safe point with one atomic load.
type checkpointer struct {
	opts  *Options
	canon []byte // canonical options JSON, the resume-identity half

	req  atomic.Bool
	quit chan struct{}
	done chan struct{}

	writes      int
	writeTime   time.Duration
	resumeTime  time.Duration
	baseElapsed time.Duration // search time accumulated before the resume
}

// newCheckpointer returns nil when checkpointing is disabled. opts must
// already be normalized (the search loops' engine options are).
func newCheckpointer(opts *Options) (*checkpointer, error) {
	if !opts.Checkpoint.enabled() {
		return nil, nil
	}
	canon, err := opts.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	return &checkpointer{opts: opts, canon: canon}, nil
}

// startTicker raises the periodic snapshot request every Interval; stop
// joins the goroutine. With Interval 0 the flag is never raised and the
// search only writes abort-time snapshots.
func (ck *checkpointer) startTicker() {
	if ck.opts.Checkpoint.Interval <= 0 {
		return
	}
	ck.quit = make(chan struct{})
	ck.done = make(chan struct{})
	go func() {
		defer close(ck.done)
		t := time.NewTicker(ck.opts.Checkpoint.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ck.req.Store(true)
			case <-ck.quit:
				return
			}
		}
	}()
}

func (ck *checkpointer) stopTicker() {
	if ck.quit != nil {
		close(ck.quit)
		<-ck.done
		ck.quit = nil
	}
}

// write stamps the identity header onto cp and persists it atomically.
func (ck *checkpointer) write(cp *snapshot.Checkpoint) error {
	t0 := time.Now()
	cp.ModelSHA = ck.opts.Checkpoint.ModelSHA
	cp.Options = ck.canon
	cp.Meta = ck.opts.Checkpoint.Meta
	err := snapshot.Write(ck.opts.Checkpoint.Path, cp)
	ck.writeTime += time.Since(t0)
	if err != nil {
		return fmt.Errorf("mc: writing checkpoint: %w", err)
	}
	ck.writes++
	return nil
}

// finish removes the checkpoint file after a search that completed with an
// answer: the snapshot's job — surviving interruption — is done, and a
// stale file must not seed an unrelated later run.
func (ck *checkpointer) finish() {
	os.Remove(ck.opts.Checkpoint.Path)
}

// stamp folds the checkpoint bookkeeping into the final stats.
func (ck *checkpointer) stamp(st *Stats) {
	st.Duration += ck.baseElapsed
	st.CheckpointWrites = ck.writes
	st.CheckpointTime = ck.writeTime
	st.ResumeTime = ck.resumeTime
}

// load reads and identity-checks the checkpoint for a resume. A missing
// file returns (nil, nil) — fresh start; every other failure wraps
// ErrResume.
func (ck *checkpointer) load() (*snapshot.Checkpoint, error) {
	cp, err := snapshot.Load(ck.opts.Checkpoint.Path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %v", ErrResume, err)
	}
	if sha := ck.opts.Checkpoint.ModelSHA; sha != "" && cp.ModelSHA != "" && sha != cp.ModelSHA {
		return nil, fmt.Errorf("%w: checkpoint is for model sha256 %s, this run is %s", ErrResume, cp.ModelSHA, sha)
	}
	if !bytes.Equal(withoutLimits(cp.Options), withoutLimits(ck.canon)) {
		return nil, fmt.Errorf("%w: checkpoint options %s differ from this run's %s", ErrResume, cp.Options, ck.canon)
	}
	if cp.Final {
		return nil, fmt.Errorf("%w: checkpoint is a completed search's final snapshot (KeepFinal) — a warm-start seed, not a resume point", ErrResume)
	}
	return cp, nil
}

// withoutLimits is the resume identity of a canonical options encoding:
// the same options with the state, memory and time limits cleared. The
// limits bound a run without changing what it explores, so a run aborted
// at one limit may resume under another or none. It returns nil for bytes
// that do not decode; a run's own encoding always decodes, so nil never
// matches it.
func withoutLimits(canon []byte) []byte {
	var o Options
	if err := o.UnmarshalJSON(canon); err != nil {
		return nil
	}
	o.MaxStates, o.MaxMemory, o.Timeout = 0, 0, 0
	b, err := o.MarshalJSON()
	if err != nil {
		return nil
	}
	return b
}

// captureState assembles a Checkpoint from a quiesced search: the count
// store entries that forEach visits, in its order, the frontier in
// pop-structure order, the ancestor chains both need for trace
// reconstruction, and the cumulative counters. A search's checkpoint
// visits its whole store (localStore.forEachNode); a kept-final snapshot
// visits just the found node, with no frontier. The caller owns identity
// stamping (see write).
//
// It works in two passes so that nothing grows by appending. The first
// assigns node indices: store entries in visiting order, each preceded
// by its unseen ancestors root-first, then the frontier's. The second
// allocates the node table at its exact size and fills it, carving every
// captured zone's bounds or constraints from one array per form.
func captureState(forEach func(fn func(n *node)), count int, frontNodes []*node, prios []int64, st snapshot.Stats) (*snapshot.Checkpoint, error) {
	index := make(map[*node]int32, count)
	order := make([]*node, 0, count)
	var chain []*node
	// add indexes n and any unseen ancestors (root-first, iteratively — DFS
	// parent chains can be thousands deep) and returns n's index.
	add := func(n *node) int32 {
		if ix, ok := index[n]; ok {
			return ix
		}
		chain = chain[:0]
		for c := n; c != nil; c = c.parent {
			if _, ok := index[c]; ok {
				break
			}
			chain = append(chain, c)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			index[chain[i]] = int32(len(order))
			order = append(order, chain[i])
		}
		return index[n]
	}
	cp := &snapshot.Checkpoint{Stats: st, Store: make([]int32, 0, count)}
	forEach(func(n *node) { cp.Store = append(cp.Store, add(n)) })
	if len(frontNodes) > 0 { // a finished search's empty frontier stays nil
		cp.Frontier = make([]snapshot.FrontierEntry, len(frontNodes))
	}
	for i, n := range frontNodes {
		cp.Frontier[i].Node = add(n)
		if prios != nil {
			cp.Frontier[i].Prio = prios[i]
		}
	}

	cp.Nodes = make([]snapshot.Node, len(order))
	for i, c := range order {
		sn := &cp.Nodes[i]
		sn.Parent = -1
		if c.parent != nil {
			sn.Parent = index[c.parent]
		}
		sn.Depth = int32(c.depth)
		sn.Via = [5]int32{
			int32(c.via.Chan), int32(c.via.A1), int32(c.via.E1),
			int32(c.via.A2), int32(c.via.E2),
		}
		sn.Subsumed = c.subsumed.Load()
	}
	// The nodes that carry state: every store entry, and a frontier node
	// that is neither one nor subsumed — unreachable today, a live frontier
	// node is always a store entry, but its state is captured rather than
	// the file corrupted.
	for _, ix := range cp.Store {
		cp.Nodes[ix].HasState = true
	}
	for _, fe := range cp.Frontier {
		if sn := &cp.Nodes[fe.Node]; !sn.Subsumed {
			sn.HasState = true
		}
	}
	var nb, nc int
	for i, c := range order {
		if !cp.Nodes[i].HasState {
			continue
		}
		switch {
		case c.czone != nil:
			nc += c.czone.Len()
		case c.zone != nil:
			nb += c.zone.Dim() * c.zone.Dim()
		default:
			return nil, fmt.Errorf("mc: checkpoint: stored node holds no zone in either form")
		}
	}
	bounds := make([]dbm.Bound, 0, nb)
	cons := make([]dbm.Constraint, 0, nc)
	for i, c := range order {
		sn := &cp.Nodes[i]
		if !sn.HasState {
			continue
		}
		sn.Locs, sn.Env = c.locs, c.env
		// Each zone's slice is capped at its own end, so an append to one
		// can never reach the next.
		if c.czone != nil {
			a := len(cons)
			cons = c.czone.AppendConstraints(cons)
			sn.Zone = snapshot.Zone{Kind: snapshot.ZoneCompact, Dim: c.czone.Dim()}
			if len(cons) > a { // an empty constraint list stays nil
				sn.Zone.Cons = cons[a:len(cons):len(cons)]
			}
		} else {
			a := len(bounds)
			bounds = c.zone.AppendBounds(bounds)
			sn.Zone = snapshot.Zone{Kind: snapshot.ZoneFull, Dim: c.zone.Dim(), Bounds: bounds[a:len(bounds):len(bounds)]}
		}
	}
	return cp, nil
}

// resumedState is a checkpoint rebuilt into live engine structures.
type resumedState struct {
	frontier []*node
	prios    []int64
	stats    snapshot.Stats
}

// seedFromCheckpoint rebuilds the search tree, seeds the store in the
// saved order (reproducing every bucket's antichain order exactly), and
// returns the frontier in saved order. compact says which zone form the
// store expects; the canonical-options equality check has already
// guaranteed agreement for well-formed files, so a mismatch here means
// corruption that slipped past the structural checks.
func seedFromCheckpoint(cp *snapshot.Checkpoint, store stateStore, compact bool) (*resumedState, error) {
	cs, ok := store.(localStore)
	if !ok {
		return nil, fmt.Errorf("mc: store kind %T is not checkpointable", store)
	}
	nodes := treeOf(cp)
	for i := range cp.Nodes {
		sn := &cp.Nodes[i]
		n := nodes[i]
		if sn.Subsumed {
			n.subsumed.Store(true)
		}
		if !sn.HasState {
			continue
		}
		n.locs, n.env = sn.Locs, sn.Env
		switch sn.Zone.Kind {
		case snapshot.ZoneFull:
			z, err := dbm.FromBounds(sn.Zone.Dim, sn.Zone.Bounds)
			if err != nil {
				return nil, fmt.Errorf("%w: node %d: %v", ErrResume, i, err)
			}
			n.zone = z
		case snapshot.ZoneCompact:
			cz, err := dbm.NewCompact(sn.Zone.Dim, sn.Zone.Cons)
			if err != nil {
				return nil, fmt.Errorf("%w: node %d: %v", ErrResume, i, err)
			}
			n.czone = cz
		}
	}
	var keyBuf []byte
	for _, ix := range cp.Store {
		n := nodes[ix]
		switch {
		case n.locs == nil:
			return nil, fmt.Errorf("%w: store entry %d has no discrete state", ErrResume, ix)
		case compact && n.czone == nil:
			return nil, fmt.Errorf("%w: store entry %d lacks the compact zone this store needs", ErrResume, ix)
		case !compact && n.zone == nil:
			return nil, fmt.Errorf("%w: store entry %d lacks the full zone this store needs", ErrResume, ix)
		}
		keyBuf = discreteKey(keyBuf[:0], n.locs, n.env)
		cs.seed(keyBuf, n)
	}
	cs.setEvictions(cp.Stats.Evictions)
	rs := &resumedState{
		frontier: make([]*node, len(cp.Frontier)),
		prios:    make([]int64, len(cp.Frontier)),
		stats:    cp.Stats,
	}
	for i, fe := range cp.Frontier {
		n := nodes[fe.Node]
		if !n.subsumed.Load() && n.zone == nil && n.czone == nil {
			return nil, fmt.Errorf("%w: live frontier entry %d has no zone", ErrResume, fe.Node)
		}
		rs.frontier[i] = n
		rs.prios[i] = fe.Prio
	}
	return rs, nil
}

// treeOf rebuilds a checkpoint's search tree: one node per saved node,
// with its depth, transition and parent link, but no state. The nodes are
// carved from one array. Decode has checked every index.
func treeOf(cp *snapshot.Checkpoint) []*node {
	slab := make([]node, len(cp.Nodes))
	nodes := make([]*node, len(cp.Nodes))
	for i := range nodes {
		nodes[i] = &slab[i]
	}
	for i, n := range nodes {
		sn := &cp.Nodes[i]
		n.depth = int(sn.Depth)
		n.via = viaOf(sn)
		if sn.Parent >= 0 {
			n.parent = nodes[sn.Parent]
		}
	}
	return nodes
}

// viaOf is the transition that led to a saved node.
func viaOf(sn *snapshot.Node) Transition {
	return Transition{
		Chan: int(sn.Via[0]), A1: int(sn.Via[1]), E1: int(sn.Via[2]),
		A2: int(sn.Via[3]), E2: int(sn.Via[4]),
	}
}

// resume loads, validates, and seeds a checkpoint, updating the
// checkpointer's cumulative bookkeeping. It returns nil (fresh start) when
// no checkpoint exists.
func (ck *checkpointer) resume(store stateStore) (*resumedState, error) {
	if !ck.opts.Checkpoint.Resume {
		return nil, nil
	}
	t0 := time.Now()
	cp, err := ck.load()
	if cp == nil || err != nil {
		return nil, err
	}
	rs, err := seedFromCheckpoint(cp, store, ck.opts.Compact)
	if err != nil {
		return nil, err
	}
	ck.resumeTime = time.Since(t0)
	ck.baseElapsed = time.Duration(rs.stats.DurationNS)
	ck.writes = int(rs.stats.CheckpointWrites)
	ck.writeTime = time.Duration(rs.stats.CheckpointNS)
	return rs, nil
}

// checkpoint captures and writes a checkpoint of the quiesced search: the
// store, the frontier nodes in pop-structure order (prios only for the
// BestTime heap), and the cumulative counters k.
func (s *search) checkpoint(front []*node, prios []int64, k *counters) error {
	cs, ok := s.store.(localStore)
	if !ok {
		return fmt.Errorf("mc: store kind %T is not checkpointable", s.store)
	}
	ck, ss := s.ck, cs.stats()
	st := k.snapshot()
	st.Evictions = ss.evictions
	st.DurationNS = int64(ck.baseElapsed + time.Since(s.start))
	st.CheckpointWrites = int64(ck.writes)
	st.CheckpointNS = int64(ck.writeTime)
	cp, err := captureState(cs.forEachNode, ss.count, front, prios, st)
	if err != nil {
		return err
	}
	return ck.write(cp)
}

// parCheckpointer is the parallel search's quiesce barrier: when the
// periodic request flag is up, every live worker parks at the top of its
// loop (a safe point — no node is mid-expansion, every published successor
// is store-added), the last arriver writes the checkpoint, and all resume.
// A worker that exits (stop, exhaustion, or a model-expression panic)
// leaves the barrier population via workerExit so parked workers are never
// stranded waiting for it.
type parCheckpointer struct {
	ck *checkpointer
	ps *parSearch

	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64
	parked  int
	active  int
	saveErr error
}

// pending is the workers' one-atomic-load hot-path check.
func (pc *parCheckpointer) pending() bool { return pc.ck.req.Load() }

// park blocks the calling worker at the barrier until the round's
// checkpoint has been written (the request flag stays up until then, so
// every worker reaching its loop top joins the same round).
func (pc *parCheckpointer) park() {
	pc.mu.Lock()
	gen := pc.gen
	pc.parked++
	if pc.parked == pc.active {
		pc.completeLocked()
	} else {
		for gen == pc.gen {
			pc.cond.Wait()
		}
	}
	pc.mu.Unlock()
}

// workerExit removes a worker from the barrier population; if it was the
// last straggler of an in-progress round, the round completes now.
func (pc *parCheckpointer) workerExit() {
	pc.mu.Lock()
	pc.active--
	if pc.parked > 0 && pc.parked == pc.active {
		pc.completeLocked()
	}
	pc.mu.Unlock()
}

// completeLocked (mu held) consumes the request, writes the checkpoint
// unless the search is already stopping (the coordinator writes the final
// abort-time checkpoint after the join instead), and releases the round.
func (pc *parCheckpointer) completeLocked() {
	pc.ck.req.Store(false)
	if !pc.ps.stop.Load() {
		if err := pc.ps.save(); err != nil && pc.saveErr == nil {
			pc.saveErr = err
		}
	}
	pc.gen++
	pc.parked = 0
	pc.cond.Broadcast()
}

// takeErr surfaces the first barrier-round write failure after the join.
func (pc *parCheckpointer) takeErr() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.saveErr
}
