// Tests of the exact-size encoder and the slab decoder: Encode must agree
// byte for byte with the reference encoder, decoding must never allocate
// more than the input could describe, and decoded slices must not share
// capacity with their neighbours.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"guidedta/internal/dbm"
)

// extremeCheckpoint stretches every varint to its widest: negative depths
// and priorities, bounds and indices at the int32 limits, empty slices
// next to full ones, and a state-carrying node with no zone.
func extremeCheckpoint() *Checkpoint {
	return &Checkpoint{
		ModelSHA: "é\xff",
		Options:  []byte(`{ "a" : [1, 2] }`),
		Meta:     "plant",
		Final:    true,
		Nodes: []Node{
			{Parent: -1, Depth: math.MinInt32, Via: [5]int32{math.MinInt32, math.MaxInt32, 0, -1, 1 << 20}},
			{
				Parent: 0, Depth: math.MaxInt32, HasState: true, Locs: []int32{}, Env: []int32{math.MinInt32, math.MaxInt32},
				Zone: Zone{Kind: ZoneFull, Dim: 1, Bounds: []dbm.Bound{math.MinInt32}},
			},
			{
				Parent: 1, HasState: true, Subsumed: true, Locs: []int32{63, 64, -64, -65}, Env: []int32{},
				Zone: Zone{Kind: ZoneCompact, Dim: 1 << 14, Cons: []dbm.Constraint{{I: math.MaxUint16, J: 0, B: math.MaxInt32}}},
			},
			{Parent: 2, HasState: true, Locs: []int32{0}, Env: []int32{}, Zone: Zone{Kind: ZoneCompact, Dim: 2, Cons: []dbm.Constraint{}}},
			{Parent: 3, HasState: true, Locs: []int32{}, Env: []int32{}},
		},
		Store:    []int32{1, 3, math.MaxInt32},
		Frontier: []FrontierEntry{{Node: 4, Prio: math.MinInt64}, {Node: 2, Prio: math.MaxInt64}},
		Stats:    Stats{StatesExplored: math.MaxInt64, ByAutomaton: []int64{-1}},
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	cps := []*Checkpoint{sampleCheckpoint(), extremeCheckpoint(), {}}
	for seed := int64(0); seed < 50; seed++ {
		cps = append(cps, randomCheckpoint(rand.New(rand.NewSource(seed))))
	}
	for i, cp := range cps {
		got, err := cp.Encode()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		want, err := cp.encodeRef()
		if err != nil {
			t.Fatalf("checkpoint %d: reference: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d: Encode differs from the reference encoder (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// TestDecodeCraftedDimensionAllocatesLittle: a tiny file with a valid
// footer whose full zone claims dimension 4096 used to allocate the
// 64 MiB matrix before failing as truncated. It must fail as ErrCorrupt
// having allocated no more than a small multiple of its own size, and so
// must its compact-zone twin that claims a huge constraint count.
func TestDecodeCraftedDimensionAllocatesLittle(t *testing.T) {
	node := func(kind ZoneKind, zone ...uint64) []byte {
		p := binary.AppendUvarint(nil, 1)                     // one node
		p = append(p, 1, 0, 1, 1, 1, 1, 1)                    // parent -1, depth 0, via all -1
		p = append(p, flagHasState|byte(kind)<<flagZoneShift) // flags
		p = append(p, 0, 0)                                   // no locs, no env
		for _, v := range zone {
			p = binary.AppendUvarint(p, v)
		}
		return append(p, make([]byte, 8)...)
	}
	for name, payload := range map[string][]byte{
		"full-dim-4096":   node(ZoneFull, 4096),
		"full-dim-16384":  node(ZoneFull, 1<<14),
		"compact-k-1<<40": node(ZoneCompact, 3, 1<<40),
		"compact-k-tight": node(ZoneCompact, 3, 4),
	} {
		data := append(append([]byte{}, magic[:]...), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(data[len(magic):], FormatVersion)
		data = binary.AppendUvarint(append(data, secNodes), uint64(len(payload)))
		data = append(data, payload...)
		sum := sha256.Sum256(data)
		data = append(data, sum[:]...)

		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
		// The bound holds on average over many decodes, so a one-off
		// allocation elsewhere in the process cannot fail it; it is checked
		// after every decode, so a decoder that allocates the matrix fails
		// on the first.
		const runs = 100
		budget := runs * 64 * uint64(len(data))
		var before, now runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			Decode(data)
			runtime.ReadMemStats(&now)
			if d := now.TotalAlloc - before.TotalAlloc; d > budget {
				t.Fatalf("%s: %d decodes of a %d-byte file allocated %d bytes", name, i, len(data), d)
			}
		}
	}
}

// TestDecodedSlicesAreCapped: every decoded Locs, Env, Bounds and Cons is
// a sub-slice of a shared array capped at its own end, so appending to one
// reallocates instead of overwriting the next node's data.
func TestDecodedSlicesAreCapped(t *testing.T) {
	data, err := randomCheckpoint(rand.New(rand.NewSource(3))).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp.Nodes {
		n := &cp.Nodes[i]
		if len(n.Locs) != cap(n.Locs) || len(n.Env) != cap(n.Env) ||
			len(n.Zone.Bounds) != cap(n.Zone.Bounds) || len(n.Zone.Cons) != cap(n.Zone.Cons) {
			t.Fatalf("node %d: a decoded slice has spare capacity", i)
		}
		n.Locs = append(n.Locs, -7)
		n.Env = append(n.Env, -7)
		n.Zone.Bounds = append(n.Zone.Bounds, -7)
		n.Zone.Cons = append(n.Zone.Cons, dbm.Constraint{B: -7})
	}
	for i := range cp.Nodes {
		n, w := &cp.Nodes[i], &want.Nodes[i]
		if !slices.Equal(n.Locs[:len(w.Locs)], w.Locs) || !slices.Equal(n.Env[:len(w.Env)], w.Env) ||
			!slices.Equal(n.Zone.Bounds[:len(w.Zone.Bounds)], w.Zone.Bounds) ||
			!slices.Equal(n.Zone.Cons[:len(w.Zone.Cons)], w.Zone.Cons) {
			t.Fatalf("node %d: an append to another node's slice overwrote its data", i)
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes, both as given and resealed with
// a valid footer (so mutations reach the section parsers instead of
// stopping at the hash). Decode must never panic and must fail only with
// the package's sentinel errors. A checkpoint that decodes must encode
// exactly as the reference encoder does, and its encoding must be a fixed
// point: it decodes and encodes to the same bytes again. An input that
// decodes without resealing is itself an encoding and must re-encode to
// itself. Random checkpoints seed the corpus.
func FuzzDecode(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		data, err := randomCheckpoint(rand.New(rand.NewSource(seed))).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, cp := range []*Checkpoint{sampleCheckpoint(), extremeCheckpoint()} {
		data, err := cp.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if cp := decodeChecked(t, data); cp != nil {
			if enc := encodeChecked(t, cp); !bytes.Equal(enc, data) {
				t.Fatalf("a decodable input re-encodes to different bytes")
			}
		}
		if len(data) < sha256.Size {
			return
		}
		resealed := reseal(data)
		cp := decodeChecked(t, resealed)
		if cp == nil {
			return
		}
		enc := encodeChecked(t, cp)
		again := decodeChecked(t, enc)
		if again == nil {
			t.Fatal("an encoding fails to decode")
		}
		if !bytes.Equal(encodeChecked(t, again), enc) {
			t.Fatal("an encoding re-encodes to different bytes")
		}
	})
}

// decodeChecked decodes data, failing t on any error that is not one of
// the package's sentinels; it returns nil when data does not decode.
func decodeChecked(t *testing.T, data []byte) *Checkpoint {
	t.Helper()
	cp, err := Decode(data)
	if err != nil {
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode error %v is none of the sentinels", err)
		}
		return nil
	}
	return cp
}

// encodeChecked encodes cp and requires the reference encoder's bytes.
func encodeChecked(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	enc, err := cp.Encode()
	if err != nil {
		t.Fatalf("Encode of a decoded checkpoint: %v", err)
	}
	ref, err := cp.encodeRef()
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("Encode differs from the reference encoder (%d vs %d bytes)", len(enc), len(ref))
	}
	return enc
}
