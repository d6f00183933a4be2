package mc

import (
	"context"
	"testing"
)

// bucketArrays returns the first element of the discrete-part array each
// bucket's stored nodes share: the arrays the store holds.
func bucketArrays(store localStore) map[*int32]bool {
	owned := make(map[*int32]bool)
	switch s := store.(type) {
	case *mapStore:
		for _, b := range s.byKey {
			owned[&b.entries[0].locs[0]] = true
		}
	case *compactStore:
		for _, b := range s.byKey {
			owned[&b.entries[0].n.locs[0]] = true
		}
	}
	return owned
}

// TestBucketsShareDiscretePart drives an exhaustive Fischer-5 BFS the way
// exploreSeq does — successors offered to the store, evicted nodes
// recycled when popped, compact nodes parked without their matrices —
// over a store it can inspect. Fischer-5 evicts 2,418 of its stored
// states, so recycling evicted nodes is exercised heavily. It checks both
// halves of the shared discrete part: the stored nodes of a bucket read
// their locations and integers from one array, and no array stored nodes
// share ever comes back out of takeNode, where fire would overwrite it.
func TestBucketsShareDiscretePart(t *testing.T) {
	for _, compact := range []bool{false, true} {
		sys, _ := fischerN(t, 5, true)
		opts, err := DefaultOptions(BFS).normalize()
		if err != nil {
			t.Fatal(err)
		}
		en, err := newEngine(context.Background(), sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := en.newCtx()
		var store localStore = newMapStore(true)
		if compact {
			store = newCompactStore(true)
		}
		park := func(n *node) {
			if n.czone != nil {
				c.releaseNode(n)
			}
		}

		init, err := c.initial()
		if err != nil {
			t.Fatal(err)
		}
		c.offer(store, c.stateKey(init), init)
		park(init)
		queue := []*node{init}
		explored, recycled := 0, 0
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n.subsumed.Load() {
				c.recycleNode(n)
				recycled++
				fresh := c.takeNode()
				if bucketArrays(store)[&fresh.locs[0]] {
					t.Fatalf("compact=%v: takeNode handed out a bucket's discrete array after an evicted node was recycled", compact)
				}
				c.recycleNode(fresh)
				continue
			}
			if n.zone == nil {
				n.zone = c.inflateZone(n.czone)
			}
			explored++
			c.successors(n, func(s *node) {
				if !c.offer(store, c.stateKey(s), s) {
					c.recycleNode(s)
					return
				}
				park(s)
				queue = append(queue, s)
			})
			park(n)
		}

		st := store.stats()
		if explored != 5931 || st.count != 3631 || st.evictions != 2418 || st.discrete != 727 {
			t.Fatalf("compact=%v: explored=%d stored=%d evictions=%d discrete=%d, want the search's 5931 3631 2418 727",
				compact, explored, st.count, st.evictions, st.discrete)
		}
		if recycled == 0 {
			t.Fatalf("compact=%v: no evicted node was popped", compact)
		}

		var key []byte
		check := func(k string, nodes []*node) {
			locs, env := nodes[0].locs, nodes[0].env
			if key = discreteKey(key[:0], locs, env); string(key) != k {
				t.Fatalf("compact=%v: a bucket's shared discrete part was overwritten", compact)
			}
			for _, n := range nodes {
				if &n.locs[0] != &locs[0] || &n.env[0] != &env[0] || len(n.locs) != len(locs) || len(n.env) != len(env) {
					t.Fatalf("compact=%v: stored nodes of one bucket do not share its discrete part", compact)
				}
			}
		}
		switch s := store.(type) {
		case *mapStore:
			for k, b := range s.byKey {
				check(k, b.entries)
			}
		case *compactStore:
			for k, b := range s.byKey {
				nodes := make([]*node, len(b.entries))
				for i, e := range b.entries {
					nodes[i] = e.n
				}
				check(k, nodes)
			}
		}
	}
}
