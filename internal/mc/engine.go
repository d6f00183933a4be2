package mc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"guidedta/internal/dbm"
	"guidedta/internal/expr"
	"guidedta/internal/ta"
)

// node is one symbolic state in the search: a location vector, an integer
// store, and a delay-closed, invariant-constrained, canonical zone. Nodes
// form a tree via parent pointers for trace reconstruction. A node is
// immutable after creation except for the subsumed flag.
type node struct {
	// locs and env are the discrete part. takeNode allocates them as one
	// array (locs = d[:nl], env = d[nl:]); the passed store repoints a
	// node it stores at the array its bucket's stored nodes share (see
	// bucket), before the node is published.
	locs   []int32
	env    []int32
	zone   *dbm.DBM
	parent *node
	via    Transition
	depth  int
	// czone is the minimal-constraint form of the zone, set by the compact
	// passed store when the node is inserted. While the node waits on the
	// frontier its full DBM is released to the zone free-list and
	// reconstructed (exactly, by the round-trip property) when the node is
	// popped for expansion — so at any instant only the states actually
	// being expanded hold O(n²) matrices. Immutable once set.
	czone *dbm.Compact
	// subsumed marks nodes evicted from the passed store by a node with a
	// larger zone; the search skips them when popped. Atomic because in
	// parallel search the store eviction and the frontier pop happen on
	// different workers.
	subsumed atomic.Bool
}

// nodeOverhead is the accounted size of a node struct.
const nodeOverhead = 96

// memBytes estimates the whole heap footprint of a node that carries its
// own discrete part: zone matrix, location vector, integer store and
// struct. It is the frontier's charge for nodes no store retains (the bit
// table); passed stores charge the discrete part once per bucket instead.
func (n *node) memBytes() int64 {
	return int64(n.zone.MemBytes()) + n.discreteBytes() + nodeOverhead
}

// discreteBytes is the footprint of the node's location vector and integer
// store.
func (n *node) discreteBytes() int64 {
	return int64(4 * (len(n.locs) + len(n.env)))
}

// engine holds the immutable static data of one exploration: the system,
// search options, extrapolation bounds and active-clock sets. It is shared
// read-only between all workers; every mutable scratch buffer lives in an
// engineCtx, so the state-successor operations are re-entrant.
type engine struct {
	sys      *ta.System
	opts     Options
	nClocks  int
	maxConst []int32
	// LU-extrapolation bounds; useLU is false when the model has diagonal
	// guards (LU and max-bound extrapolation are only proved for
	// diagonal-free automata — with diagonals the engine falls back to
	// plain max-bound extrapolation of individual clocks, the common
	// practical compromise).
	lower, upper []int32
	useLU        bool

	// active[a][l] is the bitset of clocks active in location l of
	// automaton a (nil unless ActiveClocks).
	active   [][][]uint64
	bitWords int

	// urgentSyncPossible caches whether any urgent channel exists at all.
	hasUrgentChan bool

	// ctx is the run's cancellation context (never nil); done is its Done
	// channel, checked by the search loops between expansions.
	ctx  context.Context
	done <-chan struct{}

	// Observer hooks resolved once: the observer itself, which per-state
	// events it actually listens to (so unused events skip dispatch — and,
	// in the parallel search, the serialization lock — entirely), and the
	// successor-ordering heuristic it carries.
	obs          Observer
	wantVisit    bool
	wantDeadend  bool
	wantSnapshot bool
	prio         func(t Transition) int
}

// ctxAbort maps a finished context to its abort reason: a deadline
// (Options.Timeout is sugar for one) reports AbortTimeout, any other
// cancellation AbortCanceled.
func ctxAbort(ctx context.Context) AbortReason {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return AbortTimeout
	}
	return AbortCanceled
}

// engineCtx is the per-worker mutable half of the engine: every scratch
// buffer the successor computation needs. The sequential search uses one
// ctx; the parallel search gives each worker its own, so successors/fire/
// extrapolate never share mutable state.
type engineCtx struct {
	en *engine

	// scratchAct is the active-clock union bitset (ActiveClocks only).
	scratchAct []uint64

	// Per-channel sender/receiver candidate buffers, reused across states
	// (plant models have hundreds of channels; allocating these per state
	// would dominate).
	sendBuf, recvBuf [][]syncCand
	touchedChans     []int

	// Per-channel enabled-urgent-sender buffers for urgency, reused the
	// same way (this used to be a fresh [][]int per urgency check of every
	// explored state).
	urgSenders [][]int
	urgTouched []int

	// freeZones recycles DBMs of successor candidates that turned out
	// empty, subsumed, or duplicate, so fire's per-successor Clone stops
	// dominating allocation. Free-list misses are served from the arena:
	// chunked, per-worker allocation that neither contends with other
	// workers nor hands the GC one small object per zone.
	freeZones []*dbm.DBM
	arena     *dbm.Arena

	// freeNodes recycles the node structs of successor candidates that
	// were rejected before anything — store, frontier, or a child's parent
	// pointer — could reference them, and of evicted nodes. freeDiscs
	// recycles discrete-part arrays (one per node, see takeNode): those of
	// rejected candidates, and the own copy of every node a passed store
	// repointed at its bucket's shared one.
	freeNodes []*node
	freeDiscs [][]int32

	// keyBuf is the discrete-key scratch buffer.
	keyBuf []byte

	// ups and diag hold the invariants of the location vector last passed
	// to applyInvariants, split by shape (finishZone reuses ups for the
	// delay); committedBuf backs the committed-automata list of
	// successors. All three are bounded by the model, not by the search.
	ups          []dbm.Constraint
	diag         []ta.ClockConstraint
	committedBuf []int
}

// maxFreeZones bounds the per-worker zone free-list; maxFreeNodes the node
// and discrete-array free-lists.
const (
	maxFreeZones = 512
	maxFreeNodes = 512
)

// syncCand is an automaton/edge pair that can synchronize on a channel.
type syncCand struct{ ai, ei int }

func newEngine(ctx context.Context, sys *ta.System, opts Options) (*engine, error) {
	if err := sys.Freeze(); err != nil {
		return nil, err
	}
	en := &engine{
		sys:      sys,
		opts:     opts,
		nClocks:  sys.NumClocks(),
		maxConst: sys.MaxConstants(),
		ctx:      ctx,
		done:     ctx.Done(),
		obs:      opts.Observer,
		prio:     PriorityOf(opts.Observer),
	}
	en.wantVisit, en.wantDeadend, en.wantSnapshot = observerNeeds(opts.Observer)
	var hasDiag bool
	en.lower, en.upper, hasDiag = sys.LUBounds()
	en.useLU = !hasDiag && !opts.ClassicExtrapolation
	if opts.TimeClock > 0 {
		if opts.TimeClock >= en.nClocks {
			return nil, fmt.Errorf("mc: TimeClock %d out of range", opts.TimeClock)
		}
		// The designated global time clock must stay observable up to the
		// horizon for best-first time ordering to be meaningful.
		if h := opts.TimeHorizon; h > 0 {
			if en.maxConst[opts.TimeClock] < h {
				en.maxConst[opts.TimeClock] = h
			}
			if en.lower[opts.TimeClock] < h {
				en.lower[opts.TimeClock] = h
			}
			if en.upper[opts.TimeClock] < h {
				en.upper[opts.TimeClock] = h
			}
		}
	}
	for i := 0; i < sys.NumChannels(); i++ {
		if sys.Channel(i).Urgent {
			en.hasUrgentChan = true
		}
	}
	if opts.ActiveClocks {
		en.computeActiveSets()
	}
	return en, nil
}

// newCtx creates a fresh worker context for this engine.
func (en *engine) newCtx() *engineCtx {
	ctx := &engineCtx{en: en, arena: dbm.NewArena(en.nClocks)}
	if en.opts.ActiveClocks {
		ctx.scratchAct = make([]uint64, en.bitWords)
	}
	return ctx
}

// computeActiveSets runs the per-automaton backward fixpoint of
// Daws–Tripakis inactive-clock analysis: a clock is active in location l if
// it can be tested (guard or invariant) before being reset on every path
// from l. The per-state active set is the union over all automata, which is
// sound because an automaton's reset cannot disable another automaton's
// future test (that test keeps the clock active via its own automaton's
// set).
func (en *engine) computeActiveSets() {
	en.bitWords = (en.nClocks + 63) / 64
	en.active = make([][][]uint64, len(en.sys.Automata))
	for ai, a := range en.sys.Automata {
		sets := make([][]uint64, len(a.Locations))
		for li := range sets {
			sets[li] = make([]uint64, en.bitWords)
		}
		// Seed with directly tested clocks.
		note := func(li int, cs []ta.ClockConstraint) {
			for _, c := range cs {
				if c.I != 0 {
					sets[li][c.I/64] |= 1 << (c.I % 64)
				}
				if c.J != 0 {
					sets[li][c.J/64] |= 1 << (c.J % 64)
				}
			}
		}
		for li, l := range a.Locations {
			note(li, l.Invariant)
		}
		for _, e := range a.Edges {
			note(e.Src, e.ClockGuard)
		}
		// Propagate backwards over edges until fixpoint.
		for changed := true; changed; {
			changed = false
			for _, e := range a.Edges {
				src, dst := sets[e.Src], sets[e.Dst]
				for w := 0; w < en.bitWords; w++ {
					inherit := dst[w]
					for _, r := range e.Resets {
						if r.Clock/64 == w {
							inherit &^= 1 << (r.Clock % 64)
						}
					}
					if inherit&^src[w] != 0 {
						src[w] |= inherit
						changed = true
					}
				}
			}
		}
		en.active[ai] = sets
	}
}

// cloneZone returns a copy of src, recycling a free-listed DBM when one is
// available and carving a fresh one out of the worker's arena otherwise.
func (c *engineCtx) cloneZone(src *dbm.DBM) *dbm.DBM {
	var z *dbm.DBM
	if k := len(c.freeZones); k > 0 {
		z = c.freeZones[k-1]
		c.freeZones = c.freeZones[:k-1]
	} else {
		z = c.arena.Get()
	}
	z.CopyFrom(src)
	return z
}

// freeZone returns a zone to the free-list. Only zones that are provably
// unreferenced (successor candidates that were never stored or pushed) may
// be released.
func (c *engineCtx) freeZone(z *dbm.DBM) {
	if len(c.freeZones) < maxFreeZones {
		c.freeZones = append(c.freeZones, z)
	}
}

// inflateZone reconstructs a full DBM from its minimal-constraint form,
// recycling a free-listed matrix when one is available. The result is
// exactly the zone that was released (Minimal/Inflate round-trip identity),
// so searches that park waiting nodes without their matrices behave
// bit-identically to ones that keep them.
func (c *engineCtx) inflateZone(cz *dbm.Compact) *dbm.DBM {
	var z *dbm.DBM
	if k := len(c.freeZones); k > 0 {
		z = c.freeZones[k-1]
		c.freeZones = c.freeZones[:k-1]
	} else {
		z = c.arena.Get()
	}
	cz.InflateInto(z)
	return z
}

// releaseNode recycles the zone of a node that no longer needs its matrix.
// The node struct itself stays live (it may sit in the store, on the
// frontier, or serve as a parent pointer in the search tree).
func (c *engineCtx) releaseNode(n *node) {
	if n.zone != nil {
		c.freeZone(n.zone)
		n.zone = nil
	}
}

// takeNode returns a node struct for a successor candidate, reusing a
// recycled one when available. Its locs and env are one array sized for
// the model (locs = d[:nl], env = d[nl:]), recycled when available. The
// caller must overwrite every field and both slices' contents;
// recycleNode has already cleared the reference fields and the subsumed
// flag.
func (c *engineCtx) takeNode() *node {
	var n *node
	if k := len(c.freeNodes); k > 0 {
		n = c.freeNodes[k-1]
		c.freeNodes = c.freeNodes[:k-1]
	} else {
		n = &node{}
	}
	nl := len(c.en.sys.Automata)
	var d []int32
	if k := len(c.freeDiscs); k > 0 {
		d = c.freeDiscs[k-1]
		c.freeDiscs = c.freeDiscs[:k-1]
	} else {
		d = make([]int32, nl+c.en.sys.Table.Size())
	}
	n.locs, n.env = d[:nl], d[nl:]
	return n
}

// freeDisc returns the discrete-part array of a takeNode node, given by
// its locs, to the free-list. Only arrays nothing else references may be
// released.
func (c *engineCtx) freeDisc(locs []int32) {
	if len(c.freeDiscs) < maxFreeNodes {
		c.freeDiscs = append(c.freeDiscs, locs[:cap(locs)])
	}
}

// offer adds the takeNode node s to store under key and reports whether
// the store kept it. A store that keeps s may repoint it at its bucket's
// copy of the discrete part (see bucket.share); s's own array then goes
// back to the free-list for the next successor.
func (c *engineCtx) offer(store stateStore, key []byte, s *node) bool {
	own := s.locs
	if !store.add(key, s) {
		return false
	}
	if &s.locs[0] != &own[0] {
		c.freeDisc(own)
	}
	return true
}

// recycleNode recycles both the zone and the struct of a node that is
// provably unreferenced: a successor candidate rejected before it was
// stored or pushed, or a subsumption-evicted node just popped from the
// frontier (evicted nodes were never expanded, so nothing holds a parent
// pointer to them, and the store dropped its reference when it marked
// them). Published nodes must use releaseNode instead — their structs stay
// reachable through the store, the frontier, or their children.
//
// A rejected candidate's discrete array is its own and is recycled too. An
// evicted node's arrays may be its bucket's shared copy, which the bucket
// and its other nodes still read: they are dropped, never reused.
func (c *engineCtx) recycleNode(n *node) {
	if n.zone != nil {
		c.freeZone(n.zone)
		n.zone = nil
	}
	if !n.subsumed.Load() {
		c.freeDisc(n.locs)
	}
	n.locs, n.env = nil, nil
	if len(c.freeNodes) < maxFreeNodes {
		n.parent = nil
		n.czone = nil
		n.subsumed.Store(false)
		c.freeNodes = append(c.freeNodes, n)
	}
}

// extrapolate normalizes a successor zone. With active-clock reduction,
// clocks that cannot be tested before their next reset are freed (an O(n)
// canonical-form-preserving operation, so the common case avoids the O(n³)
// re-closure that arbitrary extrapolation needs); max-bound extrapolation
// with the global per-clock maxima then bounds the remaining clocks.
func (c *engineCtx) extrapolate(locs []int32, z *dbm.DBM) bool {
	en := c.en
	if en.opts.ActiveClocks {
		act := c.scratchAct
		for w := range act {
			act[w] = 0
		}
		for ai := range en.sys.Automata {
			set := en.active[ai][locs[ai]]
			for w := range act {
				act[w] |= set[w]
			}
		}
		if tc := en.opts.TimeClock; tc > 0 {
			act[tc/64] |= 1 << (tc % 64) // global time stays observable
		}
		for clk := 1; clk < en.nClocks; clk++ {
			if act[clk/64]&(1<<(clk%64)) == 0 {
				z.FreeClock(clk)
			}
		}
	}
	if !en.opts.Extrapolate {
		return !z.IsEmpty()
	}
	if en.useLU {
		return z.ExtrapolateLU(en.lower, en.upper)
	}
	return z.ExtrapolateMaxBounds(en.maxConst)
}

// applyInvariants intersects the zone with every location invariant of the
// vector, returning false on emptiness. Validate admits only upper bounds
// xI - xJ ≺ B (I ≠ 0): those on one clock (J = 0) are applied as one batch
// and left in c.ups, the diagonal ones (J ≠ 0) one Constrain each.
func (c *engineCtx) applyInvariants(locs []int32, z *dbm.DBM) bool {
	ups, diag := c.ups[:0], c.diag[:0]
	for ai, a := range c.en.sys.Automata {
		for _, cc := range a.Locations[locs[ai]].Invariant {
			if cc.J == 0 {
				ups = append(ups, dbm.Constraint{I: uint16(cc.I), B: cc.B})
			} else {
				diag = append(diag, cc)
			}
		}
	}
	c.ups, c.diag = ups, diag
	if !z.ConstrainUppers(ups) {
		return false
	}
	for _, cc := range diag {
		if !z.Constrain(cc.I, cc.J, cc.B) {
			return false
		}
	}
	return true
}

// committed appends to dst the automata of locs in a committed location.
func (en *engine) committed(dst []int, locs []int32) []int {
	for ai, a := range en.sys.Automata {
		if a.Locations[locs[ai]].Kind == ta.Committed {
			dst = append(dst, ai)
		}
	}
	return dst
}

// noDelay reports whether a discrete state forbids delay: a committed or
// urgent location, or an enabled urgent-channel synchronization.
func (c *engineCtx) noDelay(locs []int32, env []int32) bool {
	en := c.en
	for ai, a := range en.sys.Automata {
		if a.Locations[locs[ai]].Kind != ta.Normal {
			return true
		}
	}
	if !en.hasUrgentChan {
		return false
	}
	// Check for an enabled urgent synchronization. Urgent-channel edges
	// have no clock guards (enforced by Validate), so enabledness depends
	// only on the integer state.
	if c.urgSenders == nil {
		c.urgSenders = make([][]int, en.sys.NumChannels())
	}
	senders := c.urgSenders
	touched := c.urgTouched[:0]
	for ai, a := range en.sys.Automata {
		for _, ei := range a.OutEdges(int(locs[ai])) {
			e := &a.Edges[ei]
			if e.Dir != ta.Send || !en.sys.Channel(e.Chan).Urgent {
				continue
			}
			if expr.Truthy(e.IntGuard, env) {
				if len(senders[e.Chan]) == 0 {
					touched = append(touched, e.Chan)
				}
				senders[e.Chan] = append(senders[e.Chan], ai)
			}
		}
	}
	urgentSync := false
outer:
	for ai, a := range en.sys.Automata {
		for _, ei := range a.OutEdges(int(locs[ai])) {
			e := &a.Edges[ei]
			if e.Dir != ta.Recv || !en.sys.Channel(e.Chan).Urgent {
				continue
			}
			if !expr.Truthy(e.IntGuard, env) {
				continue
			}
			for _, s := range senders[e.Chan] {
				if s != ai {
					urgentSync = true
					break outer
				}
			}
		}
	}
	for _, ch := range touched {
		senders[ch] = senders[ch][:0]
	}
	c.urgTouched = touched[:0]
	return urgentSync
}

// finishZone completes a successor zone: target invariants, delay closure
// under them when permitted, and extrapolation. Returns false if the zone
// empties. The delay leaves diagonal invariants intact (it shifts every
// clock alike), so only the upper bounds need re-applying, and UpUnder
// does Up plus that re-application in one pass.
func (c *engineCtx) finishZone(locs []int32, env []int32, z *dbm.DBM) bool {
	if !c.applyInvariants(locs, z) {
		return false
	}
	if !c.noDelay(locs, env) {
		z.UpUnder(c.ups)
	}
	return c.extrapolate(locs, z)
}

// initial builds the initial symbolic state.
func (c *engineCtx) initial() (*node, error) {
	en := c.en
	n := c.takeNode()
	for ai, a := range en.sys.Automata {
		n.locs[ai] = int32(a.Init)
	}
	copy(n.env, en.sys.Table.NewEnv())
	z := dbm.Zero(en.nClocks)
	if !c.finishZone(n.locs, n.env, z) {
		return nil, fmt.Errorf("mc: initial state violates invariants")
	}
	n.zone, n.parent, n.via, n.depth = z, nil, Transition{}, 0
	return n, nil
}

// fire attempts transition t from n: e1 (and e2 for syncs) must already be
// known integer-enabled. Returns nil if clock guards or invariants make the
// successor empty.
func (c *engineCtx) fire(n *node, t Transition) *node {
	en := c.en
	a1 := en.sys.Automata[t.A1]
	e1 := &a1.Edges[t.E1]
	var e2 *ta.Edge
	if !t.Internal() {
		e2 = &en.sys.Automata[t.A2].Edges[t.E2]
	}

	z := c.cloneZone(n.zone)
	for _, cc := range e1.ClockGuard {
		if !z.Constrain(cc.I, cc.J, cc.B) {
			c.freeZone(z)
			return nil
		}
	}
	if e2 != nil {
		for _, cc := range e2.ClockGuard {
			if !z.Constrain(cc.I, cc.J, cc.B) {
				c.freeZone(z)
				return nil
			}
		}
	}

	s := c.takeNode()
	locs, env := s.locs, s.env
	copy(env, n.env)
	// UPPAAL evaluates the sender's update before the receiver's.
	expr.ExecAll(e1.Assigns, env)
	if e2 != nil {
		expr.ExecAll(e2.Assigns, env)
	}

	copy(locs, n.locs)
	locs[t.A1] = int32(e1.Dst)
	if e2 != nil {
		locs[t.A2] = int32(e2.Dst)
	}

	for _, r := range e1.Resets {
		z.Reset(r.Clock, r.Value)
	}
	if e2 != nil {
		for _, r := range e2.Resets {
			z.Reset(r.Clock, r.Value)
		}
	}

	if !c.finishZone(locs, env, z) {
		c.freeZone(z)
		c.recycleNode(s)
		return nil
	}
	s.zone = z
	s.parent = n
	s.via = t
	s.depth = n.depth + 1
	return s
}

// successors enumerates all enabled transitions of n and yields the
// resulting nodes. Committed-location semantics restrict transitions to
// those leaving a committed location when any automaton is committed.
func (c *engineCtx) successors(n *node, yield func(*node)) {
	en := c.en
	committed := en.committed(c.committedBuf[:0], n.locs)
	c.committedBuf = committed
	isCommitted := func(ai int) bool {
		for _, cm := range committed {
			if cm == ai {
				return true
			}
		}
		return false
	}
	allowed := func(t Transition) bool {
		if len(committed) == 0 {
			return true
		}
		if isCommitted(t.A1) {
			return true
		}
		return !t.Internal() && isCommitted(t.A2)
	}

	nch := en.sys.NumChannels()
	if c.sendBuf == nil && nch > 0 {
		c.sendBuf = make([][]syncCand, nch)
		c.recvBuf = make([][]syncCand, nch)
	}
	senders, receivers := c.sendBuf, c.recvBuf
	touched := c.touchedChans[:0]
	touch := func(ch int) {
		if len(senders[ch]) == 0 && len(receivers[ch]) == 0 {
			touched = append(touched, ch)
		}
	}

	for ai, a := range en.sys.Automata {
		for _, ei := range a.OutEdges(int(n.locs[ai])) {
			e := &a.Edges[ei]
			if !expr.Truthy(e.IntGuard, n.env) {
				continue
			}
			// Cheap per-edge clock-guard satisfiability pre-check.
			ok := true
			for _, cc := range e.ClockGuard {
				if !n.zone.Satisfiable(cc.I, cc.J, cc.B) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			switch e.Dir {
			case ta.NoSync:
				t := Transition{Chan: -1, A1: ai, E1: ei, A2: -1, E2: -1}
				if !allowed(t) {
					continue
				}
				if s := c.fire(n, t); s != nil {
					yield(s)
				}
			case ta.Send:
				touch(e.Chan)
				senders[e.Chan] = append(senders[e.Chan], syncCand{ai, ei})
			case ta.Recv:
				touch(e.Chan)
				receivers[e.Chan] = append(receivers[e.Chan], syncCand{ai, ei})
			}
		}
	}

	for _, ch := range touched {
		for _, s := range senders[ch] {
			for _, r := range receivers[ch] {
				if s.ai == r.ai {
					continue
				}
				t := Transition{Chan: ch, A1: s.ai, E1: s.ei, A2: r.ai, E2: r.ei}
				if !allowed(t) {
					continue
				}
				if succ := c.fire(n, t); succ != nil {
					yield(succ)
				}
			}
		}
	}
	for _, ch := range touched {
		senders[ch] = senders[ch][:0]
		receivers[ch] = receivers[ch][:0]
	}
	c.touchedChans = touched[:0]
}

// discreteKey serializes the discrete part of a state for passed-list
// lookup.
func discreteKey(buf []byte, locs, env []int32) []byte {
	for _, l := range locs {
		buf = append(buf, byte(l), byte(l>>8))
	}
	for _, v := range env {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// stateKey builds the passed-store key for a node: the discrete part, plus
// the zone for bit-state hashing without CoarseHash (BSH stores only
// hashes, so the zone must be part of the identity).
func (c *engineCtx) stateKey(n *node) []byte {
	c.keyBuf = discreteKey(c.keyBuf[:0], n.locs, n.env)
	if c.en.opts.Search == BSH && !c.en.opts.CoarseHash {
		c.keyBuf = n.zone.AppendBytes(c.keyBuf)
	}
	return c.keyBuf
}
