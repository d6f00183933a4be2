package mc

import (
	"fmt"

	"guidedta/internal/snapshot"
)

// captureStateRef is captureState as it stood before the two-pass rewrite:
// nodes appended as they are indexed, each zone's bounds or constraints in
// its own slice. It is kept only as the reference the capture tests hold
// captureState to.
func captureStateRef(store stateStore, frontNodes []*node, prios []int64, st snapshot.Stats) (*snapshot.Checkpoint, error) {
	cs, ok := store.(localStore)
	if !ok {
		return nil, fmt.Errorf("mc: store kind %T is not checkpointable", store)
	}
	cp := &snapshot.Checkpoint{Stats: st}
	index := make(map[*node]int32)
	var chain []*node
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
			c := chain[i]
			sn := snapshot.Node{
				Parent: -1,
				Depth:  int32(c.depth),
				Via: [5]int32{
					int32(c.via.Chan), int32(c.via.A1), int32(c.via.E1),
					int32(c.via.A2), int32(c.via.E2),
				},
				Subsumed: c.subsumed.Load(),
			}
			if c.parent != nil {
				sn.Parent = index[c.parent]
			}
			index[c] = int32(len(cp.Nodes))
			cp.Nodes = append(cp.Nodes, sn)
		}
		return index[n]
	}

	var fillErr error
	cs.forEachNode(func(n *node) {
		ix := add(n)
		if err := fillNodeStateRef(&cp.Nodes[ix], n); err != nil && fillErr == nil {
			fillErr = err
		}
		cp.Store = append(cp.Store, ix)
	})
	if fillErr != nil {
		return nil, fillErr
	}
	for i, n := range frontNodes {
		ix := add(n)
		sn := &cp.Nodes[ix]
		if !sn.HasState && !sn.Subsumed {
			if err := fillNodeStateRef(sn, n); err != nil {
				return nil, err
			}
		}
		fe := snapshot.FrontierEntry{Node: ix}
		if prios != nil {
			fe.Prio = prios[i]
		}
		cp.Frontier = append(cp.Frontier, fe)
	}
	return cp, nil
}

func fillNodeStateRef(sn *snapshot.Node, n *node) error {
	sn.HasState = true
	sn.Locs, sn.Env = n.locs, n.env
	switch {
	case n.czone != nil:
		sn.Zone = snapshot.Zone{
			Kind: snapshot.ZoneCompact,
			Dim:  n.czone.Dim(),
			Cons: n.czone.AppendConstraints(nil),
		}
	case n.zone != nil:
		sn.Zone = snapshot.Zone{
			Kind:   snapshot.ZoneFull,
			Dim:    n.zone.Dim(),
			Bounds: n.zone.AppendBounds(nil),
		}
	default:
		return fmt.Errorf("mc: checkpoint: stored node holds no zone in either form")
	}
	return nil
}
