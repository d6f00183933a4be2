package mc

import (
	"sync/atomic"
	"time"
)

// instr is the lock-light instrumentation core of the search loops: a
// block of atomic counters the loops publish into and a sampling
// goroutine reads from. It exists only while an observer asked for
// snapshots (Options.SnapshotEvery > 0) — with observability disabled the
// loops skip every publication behind one nil check, so the instrumented
// build costs an idle search nothing measurable.
type instr struct {
	waiting     atomic.Int64
	peakWaiting atomic.Int64
	stored      atomic.Int64
	storeBytes  atomic.Int64
	memBytes    atomic.Int64
	steals      atomic.Int64
	// workers holds each worker's counters as it last published them.
	workers []instrSlot
}

type instrSlot struct {
	explored, transitions, deadends, maxDepth atomic.Int64
}

func newInstr(workers int) *instr {
	return &instr{workers: make([]instrSlot, workers)}
}

// publish stores worker id's counters after an expansion.
func (i *instr) publish(id int, k *counters) {
	sl := &i.workers[id]
	sl.explored.Store(int64(k.explored))
	sl.transitions.Store(int64(k.transitions))
	sl.deadends.Store(int64(k.deadends))
	sl.maxDepth.Store(int64(k.maxDepth))
}

// snapshot assembles a Snapshot from the current counter values.
func (i *instr) snapshot() Snapshot {
	s := Snapshot{
		Waiting:      int(i.waiting.Load()),
		PeakWaiting:  int(i.peakWaiting.Load()),
		StatesStored: int(i.stored.Load()),
		StoreBytes:   i.storeBytes.Load(),
		MemBytes:     i.memBytes.Load(),
		Steals:       i.steals.Load(),
	}
	if len(i.workers) > 1 {
		s.WorkerExplored = make([]int, len(i.workers))
	}
	for w := range i.workers {
		sl := &i.workers[w]
		explored := int(sl.explored.Load())
		s.StatesExplored += explored
		s.Transitions += int(sl.transitions.Load())
		s.Deadends += int(sl.deadends.Load())
		s.MaxDepth = max(s.MaxDepth, int(sl.maxDepth.Load()))
		if s.WorkerExplored != nil {
			s.WorkerExplored[w] = explored
		}
	}
	return s
}

// updateMax lifts the watermark to v with a CAS loop (contention is one
// writer per worker, so the loop retries essentially never).
func updateMax(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// sampler delivers periodic Snapshots to an observer from its own
// goroutine, computing the exploration rate between samples. stop joins
// the goroutine and emits one final (Final=true) snapshot, so even a
// search that finishes inside the first interval yields at least one.
type sampler struct {
	emit  func(Snapshot)
	read  func() Snapshot
	start time.Time
	every time.Duration
	quit  chan struct{}
	done  chan struct{}

	lastExplored int
	lastAt       time.Time
}

func startSampler(emit func(Snapshot), every time.Duration, start time.Time, read func() Snapshot) *sampler {
	s := &sampler{
		emit:   emit,
		read:   read,
		start:  start,
		every:  every,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		lastAt: start,
	}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			s.emit(s.take(false))
		}
	}
}

// take reads one snapshot and fills in the derived time fields. It is
// called from the sampling goroutine and, after the join, once more from
// the search goroutine for the final snapshot.
func (s *sampler) take(final bool) Snapshot {
	now := time.Now()
	snap := s.read()
	snap.Elapsed = now.Sub(s.start)
	snap.Final = final
	var dt time.Duration
	var base int
	if final {
		// The final rate is over the whole run, the number a report wants.
		dt, base = snap.Elapsed, 0
	} else {
		dt, base = now.Sub(s.lastAt), s.lastExplored
	}
	if dt > 0 {
		snap.StatesPerSec = float64(snap.StatesExplored-base) / dt.Seconds()
	}
	s.lastExplored = snap.StatesExplored
	s.lastAt = now
	return snap
}

// stop joins the sampling goroutine and emits the final snapshot.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
	s.emit(s.take(true))
}
