package mc

import (
	"container/heap"

	"guidedta/internal/dbm"
)

// frontier is the waiting-list seam of the search layer: the discipline
// (FIFO, LIFO, or best-first heap) is chosen once per search and the loop
// is written against this interface.
type frontier interface {
	push(n *node)
	pop() *node // nil when empty
	len() int
	// state exposes the contents in exact pop-structure order for a
	// checkpoint: FIFO front-to-back, LIFO bottom-to-top, and the BestTime
	// heap as its raw array alongside the priorities — restored verbatim,
	// the heap breaks ties identically to the uninterrupted run.
	state() (nodes []*node, prios []int64)
	// restore is state's inverse over a freshly built frontier.
	restore(nodes []*node, prios []int64)
}

// newFrontier picks the discipline for a search order.
func newFrontier(opts Options) frontier {
	switch opts.Search {
	case DFS, BSH:
		return &lifoFrontier{}
	case BestTime:
		return &heapFrontier{timeClock: opts.TimeClock}
	default:
		return &fifoFrontier{}
	}
}

// fifoFrontier is the BFS queue, with periodic compaction of the popped
// prefix.
type fifoFrontier struct {
	q    []*node
	head int
}

func (f *fifoFrontier) push(n *node) { f.q = append(f.q, n) }

func (f *fifoFrontier) pop() *node {
	if f.head >= len(f.q) {
		return nil
	}
	n := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head > 4096 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return n
}

func (f *fifoFrontier) len() int { return len(f.q) - f.head }

func (f *fifoFrontier) state() ([]*node, []int64)        { return f.q[f.head:], nil }
func (f *fifoFrontier) restore(nodes []*node, _ []int64) { f.q, f.head = nodes, 0 }

// lifoFrontier is the DFS stack.
type lifoFrontier struct {
	q []*node
}

func (f *lifoFrontier) push(n *node) { f.q = append(f.q, n) }

func (f *lifoFrontier) pop() *node {
	if len(f.q) == 0 {
		return nil
	}
	n := f.q[len(f.q)-1]
	f.q[len(f.q)-1] = nil
	f.q = f.q[:len(f.q)-1]
	return n
}

func (f *lifoFrontier) len() int { return len(f.q) }

func (f *lifoFrontier) state() ([]*node, []int64)        { return f.q, nil }
func (f *lifoFrontier) restore(nodes []*node, _ []int64) { f.q = nodes }

// heapFrontier is the BestTime min-heap on the lower bound of the
// designated global time clock.
type heapFrontier struct {
	hp        nodeHeap
	timeClock int
}

func (f *heapFrontier) push(n *node) { f.hp.push(n, minTime(n, f.timeClock)) }

func (f *heapFrontier) pop() *node {
	if f.hp.Len() == 0 {
		return nil
	}
	return f.hp.pop()
}

func (f *heapFrontier) len() int { return f.hp.Len() }

func (f *heapFrontier) state() ([]*node, []int64) { return f.hp.nodes, f.hp.prio }

func (f *heapFrontier) restore(nodes []*node, prios []int64) {
	if len(prios) != len(nodes) {
		prios = make([]int64, len(nodes))
	}
	f.hp.nodes, f.hp.prio = nodes, prios
}

// nodeHeap orders nodes by priority (min-heap) for BestTime search.
type nodeHeap struct {
	nodes []*node
	prio  []int64
}

func (h *nodeHeap) Len() int           { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool { return h.prio[i] < h.prio[j] }
func (h *nodeHeap) Swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}
func (h *nodeHeap) Push(x any) { panic("unused") }
func (h *nodeHeap) Pop() any   { panic("unused") }
func (h *nodeHeap) push(n *node, p int64) {
	h.nodes = append(h.nodes, n)
	h.prio = append(h.prio, p)
	heap.Fix(h, len(h.nodes)-1)
}
func (h *nodeHeap) pop() *node {
	n := h.nodes[0]
	last := len(h.nodes) - 1
	h.Swap(0, last)
	h.nodes = h.nodes[:last]
	h.prio = h.prio[:last]
	if last > 0 {
		heap.Fix(h, 0)
	}
	return n
}

// minTime returns the lower bound of the designated global time clock in
// the node's zone, the BestTime priority.
func minTime(n *node, tc int) int64 {
	b := n.zone.At(0, tc) // upper bound on -time
	if b == dbm.Infinity {
		return 0
	}
	return -int64(b.Value())
}
