// Round-trip and rejection tests for the checkpoint format: Encode/Decode
// must be lossless for arbitrary checkpoints, Write/Load must survive the
// file system, and every corruption class — wrong magic, wrong version,
// flipped bits, truncation, out-of-range indices — must be rejected with
// the right sentinel error, never a panic or a silently wrong checkpoint.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"guidedta/internal/dbm"
)

// sampleCheckpoint is a small fixed checkpoint covering every node shape:
// ancestor-only, full-DBM store entry, compact frontier entry.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		ModelSHA: "abc123",
		Options:  []byte(`{"search":"dfs"}`),
		Nodes: []Node{
			{Parent: -1, Depth: 0, Via: [5]int32{-1, -1, -1, -1, -1}},
			{
				Parent: 0, Depth: 1, Via: [5]int32{-1, 0, 2, -1, -1},
				HasState: true, Locs: []int32{1, 0}, Env: []int32{3},
				Zone: Zone{Kind: ZoneFull, Dim: 2, Bounds: []dbm.Bound{0, -3, 7, 0}},
			},
			{
				Parent: 1, Depth: 2, Via: [5]int32{0, 1, 0, 0, 1},
				Subsumed: true, HasState: true, Locs: []int32{0, 1}, Env: []int32{-2},
				Zone: Zone{Kind: ZoneCompact, Dim: 3, Cons: []dbm.Constraint{
					{I: 1, J: 0, B: 9}, {I: 0, J: 2, B: -4},
				}},
			},
		},
		Store:    []int32{1, 2},
		Frontier: []FrontierEntry{{Node: 2, Prio: -17}},
		Stats: Stats{
			StatesExplored: 42, Transitions: 99, MaxDepth: 7,
			PeakWaiting: 3, DurationNS: 1e6, CheckpointWrites: 2,
			ByAutomaton: []int64{40, 2},
		},
	}
}

// randomCheckpoint generates an arbitrary but structurally valid
// checkpoint; every slice a decoder materializes is non-nil so the
// reflect.DeepEqual comparison is exact.
func randomCheckpoint(rng *rand.Rand) *Checkpoint {
	nn := 1 + rng.Intn(40)
	cp := &Checkpoint{
		ModelSHA: "sha",
		Options:  []byte(`{"o":1}`),
		Nodes:    make([]Node, 0, nn),
		Store:    make([]int32, 0),
		Frontier: make([]FrontierEntry, 0),
	}
	for i := 0; i < nn; i++ {
		n := Node{Parent: int32(rng.Intn(i+1)) - 1, Depth: int32(rng.Intn(100))}
		for vi := range n.Via {
			n.Via[vi] = int32(rng.Intn(20)) - 1
		}
		if rng.Intn(3) > 0 {
			n.HasState = true
			n.Subsumed = rng.Intn(4) == 0
			n.Locs = []int32{int32(rng.Intn(5)), int32(rng.Intn(5))}
			n.Env = []int32{int32(rng.Intn(2000) - 1000)}
			dim := 1 + rng.Intn(5)
			if rng.Intn(2) == 0 {
				n.Zone = Zone{Kind: ZoneFull, Dim: dim, Bounds: make([]dbm.Bound, dim*dim)}
				for bi := range n.Zone.Bounds {
					n.Zone.Bounds[bi] = dbm.Bound(rng.Intn(4000) - 2000)
				}
			} else {
				k := 1 + rng.Intn(6)
				n.Zone = Zone{Kind: ZoneCompact, Dim: dim, Cons: make([]dbm.Constraint, k)}
				for ci := range n.Zone.Cons {
					n.Zone.Cons[ci] = dbm.Constraint{
						I: uint16(rng.Intn(dim)), J: uint16(rng.Intn(dim)),
						B: dbm.Bound(rng.Intn(4000) - 2000),
					}
				}
			}
			if rng.Intn(2) == 0 {
				cp.Store = append(cp.Store, int32(i))
			} else {
				cp.Frontier = append(cp.Frontier, FrontierEntry{Node: int32(i), Prio: int64(rng.Intn(1 << 20))})
			}
		}
		cp.Nodes = append(cp.Nodes, n)
	}
	cp.Stats = Stats{StatesExplored: rng.Int63n(1 << 30), Steals: rng.Int63n(100)}
	return cp
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
}

func TestEncodeDecodeRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cp := randomCheckpoint(rand.New(rand.NewSource(seed)))
		data, err := cp.Encode()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.ckpt")
	cp := sampleCheckpoint()
	if err := Write(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatal("Write/Load round trip mismatch")
	}
	// No temp-file litter after a successful atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !os.IsNotExist(err) {
		t.Fatalf("got %v, want a not-exist error", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("not a checkpoint at all, definitely long enough to have a footer......"),
		[]byte("short"),
		{},
	} {
		if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Decode(%q): got %v, want ErrBadMagic", data[:min(len(data), 8)], err)
		}
	}
}

// reseal recomputes the footer hash after a deliberate body mutation, so
// the test exercises the named check rather than the hash tripwire.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte{}, body...), sum[:]...)
}

func TestDecodeVersionMismatch(t *testing.T) {
	data, err := sampleCheckpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], FormatVersion+1)
	if _, err := Decode(reseal(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestDecodeFlippedBit(t *testing.T) {
	data, err := sampleCheckpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt (footer mismatch)", err)
	}
}

func TestDecodeTruncation(t *testing.T) {
	data, err := sampleCheckpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, len(data) - sha256.Size, len(data) / 2, 12, 9} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d-byte prefix succeeded", cut, len(data))
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut %d: got %v, want ErrCorrupt or ErrBadMagic", cut, err)
		}
	}
}

// TestReadHeaderBoundsSectionLength: a corrupt or truncated checkpoint
// whose section-length uvarint decodes to an absurd value must fail with
// ErrCorrupt instead of attempting a multi-gigabyte allocation (or
// overflowing int on 32-bit in the discard path).
func TestReadHeaderBoundsSectionLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.ckpt")
	prefix := append(append([]byte{}, magic[:]...), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(prefix[len(magic):], FormatVersion)
	for name, tag := range map[string]byte{"header": secHeader, "skipped": secNodes} {
		data := append(append([]byte{}, prefix...), tag)
		data = binary.AppendUvarint(data, 1<<62) // claims ~4 EiB of payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHeader(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s section: got %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzReadHeader: ReadHeader on arbitrary file contents never panics and
// fails only with the package's sentinel errors. It skips the footer hash
// that Decode checks, so wherever Decode succeeds it must succeed too,
// with the header Decode read. Encoded checkpoints seed the corpus.
func FuzzReadHeader(f *testing.F) {
	for _, cp := range []*Checkpoint{sampleCheckpoint(), extremeCheckpoint(), randomCheckpoint(rand.New(rand.NewSource(1)))} {
		data, err := cp.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHeader(path)
		if err != nil && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadHeader error %v is none of the sentinels", err)
		}
		cp, derr := Decode(data)
		if derr != nil {
			return
		}
		if err != nil {
			t.Fatalf("Decode reads the checkpoint but ReadHeader fails: %v", err)
		}
		want := &Header{ModelSHA: cp.ModelSHA, Options: cp.Options, Meta: cp.Meta, Final: cp.Final}
		if !reflect.DeepEqual(h, want) {
			t.Fatalf("ReadHeader = %+v, Decode read %+v", h, want)
		}
	})
}

func TestDecodeRejectsBadIndices(t *testing.T) {
	for name, mutate := range map[string]func(*Checkpoint){
		"store-oob":    func(cp *Checkpoint) { cp.Store = []int32{99} },
		"frontier-oob": func(cp *Checkpoint) { cp.Frontier = []FrontierEntry{{Node: -1}} },
		"self-parent":  func(cp *Checkpoint) { cp.Nodes[1].Parent = 1 },
		"parent-oob":   func(cp *Checkpoint) { cp.Nodes[0].Parent = 77 },
	} {
		cp := sampleCheckpoint()
		mutate(cp)
		data, err := cp.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}
