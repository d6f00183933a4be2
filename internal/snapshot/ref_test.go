package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// encodeRef is the encoder as it stood before the exact-size rewrite: each
// section payload built in its own growing slice, then copied into an
// output grown by appending. It is kept, with its helpers, only as the
// reference the byte-equality tests hold Encode to.
func (cp *Checkpoint) encodeRef() ([]byte, error) {
	buf := make([]byte, 0, 64+len(cp.Nodes)*32)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)

	hdr, err := json.Marshal(header{
		ModelSHA: cp.ModelSHA,
		Options:  json.RawMessage(cp.Options),
		Meta:     cp.Meta,
		Final:    cp.Final,
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding header: %w", err)
	}
	buf = appendSectionRef(buf, secHeader, hdr)
	buf = appendSectionRef(buf, secNodes, cp.encodeNodesRef(nil))
	buf = appendSectionRef(buf, secStore, encodeIndexListRef(nil, cp.Store))
	buf = appendSectionRef(buf, secFrontier, cp.encodeFrontierRef(nil))
	st, err := json.Marshal(cp.Stats)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding stats: %w", err)
	}
	buf = appendSectionRef(buf, secStats, st)

	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

func appendSectionRef(buf []byte, tag byte, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

func (cp *Checkpoint) encodeNodesRef(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cp.Nodes)))
	for i := range cp.Nodes {
		n := &cp.Nodes[i]
		buf = binary.AppendVarint(buf, int64(n.Parent))
		buf = binary.AppendUvarint(buf, uint64(n.Depth))
		for _, v := range n.Via {
			buf = binary.AppendVarint(buf, int64(v))
		}
		flags := byte(n.Zone.Kind) << flagZoneShift
		if n.Subsumed {
			flags |= flagSubsumed
		}
		if n.HasState {
			flags |= flagHasState
		}
		buf = append(buf, flags)
		if !n.HasState {
			continue
		}
		buf = appendInt32sRef(buf, n.Locs)
		buf = appendInt32sRef(buf, n.Env)
		switch n.Zone.Kind {
		case ZoneFull:
			buf = binary.AppendUvarint(buf, uint64(n.Zone.Dim))
			for _, b := range n.Zone.Bounds {
				buf = binary.AppendVarint(buf, int64(b))
			}
		case ZoneCompact:
			buf = binary.AppendUvarint(buf, uint64(n.Zone.Dim))
			buf = binary.AppendUvarint(buf, uint64(len(n.Zone.Cons)))
			for _, cc := range n.Zone.Cons {
				buf = binary.AppendUvarint(buf, uint64(cc.I))
				buf = binary.AppendUvarint(buf, uint64(cc.J))
				buf = binary.AppendVarint(buf, int64(cc.B))
			}
		}
	}
	return buf
}

func encodeIndexListRef(buf []byte, ixs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ixs)))
	for _, ix := range ixs {
		buf = binary.AppendUvarint(buf, uint64(ix))
	}
	return buf
}

func (cp *Checkpoint) encodeFrontierRef(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cp.Frontier)))
	for _, fe := range cp.Frontier {
		buf = binary.AppendUvarint(buf, uint64(fe.Node))
		buf = binary.AppendVarint(buf, fe.Prio)
	}
	return buf
}

func appendInt32sRef(buf []byte, vs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}
