// Package snapshot implements the durable checkpoint format of the search
// engine: a versioned, self-describing binary file holding a paused
// exploration — the passed store, the frontier in its exact order, the
// search tree needed for trace reconstruction, and the effort statistics —
// plus the identity (model sha256, canonical options JSON) that guards
// against resuming the wrong search.
//
// The format is deliberately neutral: the package knows nodes, zones, and
// sections, not engines. internal/mc converts its live search state to and
// from these types; a warm start calls Load directly and replays paths
// read from Checkpoint.Nodes without going through a full resume.
//
// # File layout
//
//	magic    [8]byte  "GTACKPT\n"
//	version  uint32   little-endian format version (currently 1)
//	sections tag byte + uvarint payload length + payload, repeated:
//	         1 header (JSON: model sha256 + canonical options)
//	         2 nodes (search-tree nodes, parents before use not required)
//	         3 store (node indices, bucket-sorted, insertion-ordered)
//	         4 frontier (node indices + heap priorities, order-preserving)
//	         5 stats (JSON)
//	footer   [32]byte sha256 over everything before it
//
// Integers inside sections are varint-encoded (zigzag for signed values).
// Writes are atomic: temp file in the target directory, fsync, rename.
package snapshot

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"guidedta/internal/dbm"
)

// FormatVersion is the current checkpoint format version. Load rejects any
// other version: the format describes engine internals (store antichain
// order, frontier discipline state), so cross-version resume would be a
// correctness hazard, not a convenience.
const FormatVersion = 1

var magic = [8]byte{'G', 'T', 'A', 'C', 'K', 'P', 'T', '\n'}

// Sentinel errors, distinguishable with errors.Is. Load additionally
// wraps each with position detail.
var (
	// ErrBadMagic marks a file that is not a checkpoint at all.
	ErrBadMagic = errors.New("snapshot: not a checkpoint file (bad magic)")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported checkpoint format version")
	// ErrCorrupt marks a truncated or bit-rotted checkpoint (failed
	// footer hash, short sections, out-of-range indices).
	ErrCorrupt = errors.New("snapshot: corrupt or truncated checkpoint")
)

// Section tags.
const (
	secHeader byte = 1 + iota
	secNodes
	secStore
	secFrontier
	secStats
)

// ZoneKind says which zone representation a node carries.
type ZoneKind uint8

const (
	// ZoneNone is a node whose zone was not captured (popped ancestors,
	// subsumption-evicted frontier entries): only the discrete search-tree
	// data survives, which is all trace reconstruction needs.
	ZoneNone ZoneKind = iota
	// ZoneFull is a full canonical DBM (the default full-matrix store).
	ZoneFull
	// ZoneCompact is a minimal-constraint zone (Options.Compact).
	ZoneCompact
)

// Zone is one serialized zone in either representation.
type Zone struct {
	Kind ZoneKind
	Dim  int
	// Bounds is the row-major Dim×Dim matrix (ZoneFull).
	Bounds []dbm.Bound
	// Cons is the minimal-constraint list in canonical order (ZoneCompact).
	Cons []dbm.Constraint
}

// Node is one search-tree node. Parent is an index into Checkpoint.Nodes
// (-1 for the root); Via is the engine transition {Chan, A1, E1, A2, E2}
// that produced the node, kept as raw ints so the package stays neutral.
type Node struct {
	Parent   int32
	Depth    int32
	Via      [5]int32
	Subsumed bool
	// HasState marks nodes whose discrete state and zone were captured:
	// store entries and live frontier entries. Ancestor-only nodes carry
	// nothing but Parent/Via/Depth.
	HasState bool
	Locs     []int32
	Env      []int32
	Zone     Zone
}

// FrontierEntry is one waiting node in exploration order. Prio is the
// best-first heap priority (meaningful only for the BestTime order, where
// it is captured verbatim so the restored heap ties break identically).
type FrontierEntry struct {
	Node int32
	Prio int64
}

// Stats carries the cumulative effort counters of the checkpointed run, so
// a resumed search reports totals indistinguishable from an uninterrupted
// one.
type Stats struct {
	StatesExplored   int64   `json:"states_explored"`
	Transitions      int64   `json:"transitions"`
	Deadends         int64   `json:"deadends"`
	MaxDepth         int64   `json:"max_depth"`
	PeakWaiting      int64   `json:"peak_waiting"`
	Evictions        int64   `json:"evictions"`
	Steals           int64   `json:"steals"`
	PeakMemBytes     int64   `json:"peak_mem_bytes"`
	DurationNS       int64   `json:"duration_ns"`
	CheckpointWrites int64   `json:"checkpoint_writes"`
	CheckpointNS     int64   `json:"checkpoint_ns"`
	ByAutomaton      []int64 `json:"by_automaton,omitempty"`
}

// Checkpoint is one paused exploration.
type Checkpoint struct {
	// ModelSHA is the canonical model digest (tadsl.Hash) recorded by the
	// layer that knows the model's source form; empty means unchecked.
	ModelSHA string
	// Options is the canonical options JSON (mc.Options.CanonicalJSON) the
	// search ran with. Resume requires byte equality.
	Options []byte
	// Meta is an opaque advisory label stamped by the producing layer (the
	// serving layer records the cache-key kind here so near-miss checkpoints
	// can be grouped into warm-start families without decoding node tables).
	// Resume never interprets it.
	Meta string
	// Final marks a checkpoint written at the natural end of a completed
	// search (mc.CheckpointOptions.KeepFinal) rather than at an abort point.
	// Final checkpoints are warm-start seeds only: their frontier reflects a
	// finished search, so an exact resume from one could terminate with the
	// wrong verdict and is refused by the resume path.
	Final bool
	// Nodes is the retained search tree; Store and Frontier index into it.
	Nodes []Node
	// Store lists the passed-store entries as node indices, buckets in
	// sorted key order and entries in bucket insertion order, so replaying
	// them through the store's seed path reproduces every antichain scan
	// order exactly.
	Store []int32
	// Frontier lists the waiting nodes in exact pop-structure order.
	Frontier []FrontierEntry
	Stats    Stats
}

// header is the JSON payload of the header section.
type header struct {
	ModelSHA string          `json:"model_sha256"`
	Options  json.RawMessage `json:"options"`
	// Meta and Final ride in the header JSON as optional fields: a version-1
	// reader that predates them simply ignores the keys, so stamping them
	// needs no format-version bump.
	Meta  string `json:"meta,omitempty"`
	Final bool   `json:"final,omitempty"`
}

// Encode serializes the checkpoint to its binary form (magic through
// footer). Write is Encode plus the atomic file dance; Encode is exposed
// for tests and future transports (shard handoff over the network).
func (cp *Checkpoint) Encode() ([]byte, error) {
	return cp.encodeInto(nil)
}

// encodeInto serializes the checkpoint into buf's storage, grown once to
// the exact encoded size: a sizing pass computes every section's length,
// so each section header is written up front and its payload encoded
// straight after it, with no per-section payload slice and no growth.
func (cp *Checkpoint) encodeInto(buf []byte) ([]byte, error) {
	hdr, err := json.Marshal(header{
		ModelSHA: cp.ModelSHA,
		Options:  json.RawMessage(cp.Options),
		Meta:     cp.Meta,
		Final:    cp.Final,
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding header: %w", err)
	}
	st, err := json.Marshal(cp.Stats)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding stats: %w", err)
	}
	nodesLen, storeLen, frontLen := cp.nodesSize(), indexListSize(cp.Store), cp.frontierSize()
	body := len(magic) + 4 + sectionSize(len(hdr)) + sectionSize(nodesLen) +
		sectionSize(storeLen) + sectionSize(frontLen) + sectionSize(len(st))

	buf = slices.Grow(buf[:0], body+sha256.Size)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(appendSectionHeader(buf, secHeader, len(hdr)), hdr...)
	buf = cp.encodeNodes(appendSectionHeader(buf, secNodes, nodesLen))
	buf = encodeIndexList(appendSectionHeader(buf, secStore, storeLen), cp.Store)
	buf = cp.encodeFrontier(appendSectionHeader(buf, secFrontier, frontLen))
	buf = append(appendSectionHeader(buf, secStats, len(st)), st...)
	if len(buf) != body {
		// A sizing function disagrees with its encoder: the section
		// lengths already written are wrong, so the bytes must not land.
		return nil, fmt.Errorf("snapshot: encoded %d bytes, sized %d", len(buf), body)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// bufPool recycles the byte buffers Write encodes into and Load reads
// into: a re-synthesis server writes and loads a checkpoint per warm job.
// Neither function lets a buffer escape — Decode copies everything it
// keeps — so a buffer is free again as soon as the call returns.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Write atomically persists the checkpoint at path: the bytes land in a
// temp file in the same directory, are fsynced, and are renamed over the
// target, so a crash mid-write leaves either the previous checkpoint or
// none — never a torn file.
func Write(path string, cp *Checkpoint) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	data, err := cp.encodeInto(*bp)
	if err != nil {
		return err
	}
	*bp = data
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	return nil
}

// Load reads and verifies a checkpoint. Errors distinguish a missing file
// (os.IsNotExist / fs.ErrNotExist), a non-checkpoint file (ErrBadMagic),
// an incompatible version (ErrVersion), and corruption (ErrCorrupt).
// The file is read into a pooled buffer of its Stat size; a file shorter
// than that is ErrCorrupt.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if uint64(size) > maxInt {
		return nil, fmt.Errorf("%w: file size %d exceeds the address space", ErrCorrupt, size)
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	data := slices.Grow((*bp)[:0], int(size))[:size]
	*bp = data
	if _, err := io.ReadFull(f, data); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: file shorter than its size %d", ErrCorrupt, size)
		}
		return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	return Decode(data)
}

// maxInt bounds lengths read from files before they are used as ints.
const maxInt = uint64(^uint(0) >> 1)

// Header is the identity portion of a checkpoint: the fields of the header
// section, readable without decoding — or hash-verifying — the node table.
type Header struct {
	ModelSHA string
	Options  []byte
	Meta     string
	Final    bool
}

// ReadHeader parses just the magic, version, and header section of the
// checkpoint at path. It deliberately skips the footer hash: the answer is
// advisory identity information (which model, which options, which warm
// family) in O(header) time regardless of node-table size. Anything acting
// on the node table must go through Load/Decode, which verify in full.
func ReadHeader(path string) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 4096)

	var pre [len(magic) + 4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: file shorter than magic+version", ErrCorrupt)
	}
	if string(pre[:len(magic)]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(pre[len(magic):]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}
	// Scan sections until the header turns up (our writer emits it first;
	// tolerating any order costs only skipped reads). The trailing footer
	// has no section framing, so a header-less file errors out on it or on
	// EOF — either way ErrCorrupt.
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: no header section before EOF", ErrCorrupt)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d length truncated", ErrCorrupt, tag)
		}
		// Bound the unvalidated length by the file size before allocating
		// or discarding: a corrupt uvarint must yield ErrCorrupt, not a
		// multi-GB allocation (or an int overflow on 32-bit platforms).
		if n > uint64(size) || n > maxInt {
			return nil, fmt.Errorf("%w: section %d length %d exceeds file size %d", ErrCorrupt, tag, n, size)
		}
		if tag != secHeader {
			if _, err := br.Discard(int(n)); err != nil {
				return nil, fmt.Errorf("%w: section %d overruns file", ErrCorrupt, tag)
			}
			continue
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: header section overruns file", ErrCorrupt)
		}
		var h header
		if err := json.Unmarshal(payload, &h); err != nil {
			return nil, fmt.Errorf("%w: header section: %v", ErrCorrupt, err)
		}
		return &Header{ModelSHA: h.ModelSHA, Options: []byte(h.Options), Meta: h.Meta, Final: h.Final}, nil
	}
}

// Decode parses the binary form produced by Encode.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(magic)+4+sha256.Size {
		if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
			return nil, fmt.Errorf("%w (%d bytes)", ErrBadMagic, len(data))
		}
		return nil, fmt.Errorf("%w: file shorter than header+footer (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	body, footer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(footer) {
		return nil, fmt.Errorf("%w: footer sha256 mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(body[len(magic):]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}

	cp := &Checkpoint{}
	rest := body[len(magic)+4:]
	seen := map[byte]bool{}
	for len(rest) > 0 {
		tag := rest[0]
		rest = rest[1:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return nil, fmt.Errorf("%w: section %d length overruns file", ErrCorrupt, tag)
		}
		payload := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, tag)
		}
		seen[tag] = true
		var err error
		switch tag {
		case secHeader:
			var h header
			if err = json.Unmarshal(payload, &h); err == nil {
				cp.ModelSHA = h.ModelSHA
				cp.Options = []byte(h.Options)
				cp.Meta = h.Meta
				cp.Final = h.Final
			}
		case secNodes:
			err = cp.decodeNodes(payload)
		case secStore:
			cp.Store, err = decodeIndexList(payload)
		case secFrontier:
			err = cp.decodeFrontier(payload)
		case secStats:
			err = json.Unmarshal(payload, &cp.Stats)
		default:
			// Unknown sections are tolerated within a version (forward room
			// for optional sections), having already passed the hash check.
		}
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, tag, err)
		}
	}
	for _, tag := range []byte{secHeader, secNodes, secStore, secFrontier, secStats} {
		if !seen[tag] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, tag)
		}
	}
	// Index validation here, once, so consumers can trust the structure.
	nn := int32(len(cp.Nodes))
	for i, n := range cp.Nodes {
		if n.Parent < -1 || n.Parent >= nn || n.Parent == int32(i) {
			return nil, fmt.Errorf("%w: node %d has parent %d out of range", ErrCorrupt, i, n.Parent)
		}
	}
	for _, ix := range cp.Store {
		if ix < 0 || ix >= nn {
			return nil, fmt.Errorf("%w: store entry index %d out of range", ErrCorrupt, ix)
		}
	}
	for _, fe := range cp.Frontier {
		if fe.Node < 0 || fe.Node >= nn {
			return nil, fmt.Errorf("%w: frontier index %d out of range", ErrCorrupt, fe.Node)
		}
	}
	return cp, nil
}

// --- section encoders/decoders ---

func appendSectionHeader(buf []byte, tag byte, n int) []byte {
	return binary.AppendUvarint(append(buf, tag), uint64(n))
}

// sectionSize is the encoded size of a section with an n-byte payload.
func sectionSize(n int) int { return 1 + uvarintLen(uint64(n)) + n }

// uvarintLen is len(binary.AppendUvarint(nil, x)).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is len(binary.AppendVarint(nil, v)): the zigzag encoding's
// uvarint length.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// Node flag bits.
const (
	flagSubsumed = 1 << 0
	flagHasState = 1 << 1
	// Zone kind occupies bits 2-3.
	flagZoneShift = 2
)

func (cp *Checkpoint) encodeNodes(buf []byte) []byte {
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
		buf = appendInt32s(buf, n.Locs)
		buf = appendInt32s(buf, n.Env)
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

// nodesSize is len(cp.encodeNodes(nil)), computed without encoding.
func (cp *Checkpoint) nodesSize() int {
	size := uvarintLen(uint64(len(cp.Nodes)))
	for i := range cp.Nodes {
		n := &cp.Nodes[i]
		size += varintLen(int64(n.Parent)) + uvarintLen(uint64(n.Depth)) + 1 // flags
		for _, v := range n.Via {
			size += varintLen(int64(v))
		}
		if !n.HasState {
			continue
		}
		size += int32sSize(n.Locs) + int32sSize(n.Env)
		switch n.Zone.Kind {
		case ZoneFull:
			size += uvarintLen(uint64(n.Zone.Dim))
			for _, b := range n.Zone.Bounds {
				size += varintLen(int64(b))
			}
		case ZoneCompact:
			size += uvarintLen(uint64(n.Zone.Dim)) + uvarintLen(uint64(len(n.Zone.Cons)))
			for _, cc := range n.Zone.Cons {
				size += uvarintLen(uint64(cc.I)) + uvarintLen(uint64(cc.J)) + varintLen(int64(cc.B))
			}
		}
	}
	return size
}

// decodeNodes parses the node section in two passes over its bytes. The
// first validates every record and counts what the nodes hold; only then
// is anything allocated, so a crafted length can cost no more memory than
// the section could really describe. The second pass allocates the nodes
// and one shared array each for all Locs and Env, all full-zone bounds
// and all compact constraints, at exactly the counted sizes, and fills
// them. Every node's slices are capped sub-slices of those arrays, so an
// append to one reallocates rather than overwrite a neighbour.
func (cp *Checkpoint) decodeNodes(payload []byte) error {
	var count nodeSlabs
	if err := count.walk(payload); err != nil {
		return err
	}
	fill := nodeSlabs{
		nodes:  make([]Node, count.nNodes),
		ints:   make([]int32, count.nInts),
		bounds: make([]dbm.Bound, count.nBounds),
		cons:   make([]dbm.Constraint, count.nCons),
	}
	if err := fill.walk(payload); err != nil {
		return err
	}
	cp.Nodes = fill.nodes
	return nil
}

// nodeSlabs is one pass of decodeNodes: the shared arrays (all nil on the
// counting pass) and how much of each the records so far have taken.
type nodeSlabs struct {
	nodes  []Node
	ints   []int32
	bounds []dbm.Bound
	cons   []dbm.Constraint

	nNodes, nInts, nBounds, nCons int
}

// walk parses the node section. When the arrays are allocated it carves
// each record's slices from them and decodes the values; when not, it
// only counts the values and skips them (accepting exactly the varints
// the decoding pass accepts), which is what makes counting cheap.
func (s *nodeSlabs) walk(payload []byte) error {
	fill := s.nodes != nil
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) { // every node costs >= 1 byte
		return fmt.Errorf("implausible node count %d", count)
	}
	s.nNodes = int(count)
	var scratch Node
	for i := 0; i < s.nNodes; i++ {
		n := &scratch
		if fill {
			n = &s.nodes[i]
		}
		n.Parent = int32(r.varint())
		n.Depth = int32(r.uvarint())
		for vi := range n.Via {
			n.Via[vi] = int32(r.varint())
		}
		flags := r.byte()
		n.Subsumed = flags&flagSubsumed != 0
		n.HasState = flags&flagHasState != 0
		n.Zone.Kind = ZoneKind(flags >> flagZoneShift)
		if n.Zone.Kind > ZoneCompact {
			return fmt.Errorf("node %d: unknown zone kind %d", i, n.Zone.Kind)
		}
		if !n.HasState {
			continue
		}
		n.Locs = s.int32s(&r)
		n.Env = s.int32s(&r)
		switch n.Zone.Kind {
		case ZoneFull:
			// Each bound takes at least one byte: a dimension whose matrix
			// cannot fit in what is left is rejected before it is counted.
			dim := r.uvarint()
			if dim < 1 || dim > 1<<14 || dim*dim > uint64(r.left()) || r.failed {
				return fmt.Errorf("node %d: bad zone dimension %d", i, dim)
			}
			n.Zone.Dim = int(dim)
			a := s.nBounds
			s.nBounds += int(dim * dim)
			if !fill {
				r.skip(int(dim * dim))
				break
			}
			bs := s.bounds[a:s.nBounds:s.nBounds]
			for bi := range bs {
				bs[bi] = dbm.Bound(r.varint())
			}
			n.Zone.Bounds = bs
		case ZoneCompact:
			// Each constraint takes at least three bytes.
			dim := r.uvarint()
			k := r.uvarint()
			if dim < 1 || dim > 1<<14 || k > uint64(r.left()/3) || r.failed {
				return fmt.Errorf("node %d: bad compact zone (dim %d, %d constraints)", i, dim, k)
			}
			n.Zone.Dim = int(dim)
			a := s.nCons
			s.nCons += int(k)
			if !fill {
				r.skip(3 * int(k))
				break
			}
			cs := s.cons[a:s.nCons:s.nCons]
			for ci := range cs {
				cs[ci] = dbm.Constraint{I: uint16(r.uvarint()), J: uint16(r.uvarint()), B: dbm.Bound(r.varint())}
			}
			n.Zone.Cons = cs
		}
		if r.failed {
			return fmt.Errorf("truncated at node %d", i)
		}
	}
	if r.failed {
		return errors.New("truncated node section")
	}
	return nil
}

// int32s reads a counted varint list, carved from the shared ints array
// on the filling pass and only counted on the counting pass.
func (s *nodeSlabs) int32s(r *reader) []int32 {
	count := r.uvarint()
	if r.failed || count > uint64(r.left()) { // every value costs >= 1 byte
		r.failed = true
		return nil
	}
	a := s.nInts
	s.nInts += int(count)
	if s.nodes == nil {
		r.skip(int(count))
		return nil
	}
	vs := s.ints[a:s.nInts:s.nInts]
	for i := range vs {
		vs[i] = int32(r.varint())
	}
	return vs
}

func encodeIndexList(buf []byte, ixs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ixs)))
	for _, ix := range ixs {
		buf = binary.AppendUvarint(buf, uint64(ix))
	}
	return buf
}

// indexListSize is len(encodeIndexList(nil, ixs)).
func indexListSize(ixs []int32) int {
	size := uvarintLen(uint64(len(ixs)))
	for _, ix := range ixs {
		size += uvarintLen(uint64(ix))
	}
	return size
}

func decodeIndexList(payload []byte) ([]int32, error) {
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("implausible index count %d", count)
	}
	ixs := make([]int32, count)
	for i := range ixs {
		ixs[i] = int32(r.uvarint())
	}
	if r.failed {
		return nil, errors.New("truncated index list")
	}
	return ixs, nil
}

func (cp *Checkpoint) encodeFrontier(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cp.Frontier)))
	for _, fe := range cp.Frontier {
		buf = binary.AppendUvarint(buf, uint64(fe.Node))
		buf = binary.AppendVarint(buf, fe.Prio)
	}
	return buf
}

// frontierSize is len(cp.encodeFrontier(nil)).
func (cp *Checkpoint) frontierSize() int {
	size := uvarintLen(uint64(len(cp.Frontier)))
	for _, fe := range cp.Frontier {
		size += uvarintLen(uint64(fe.Node)) + varintLen(fe.Prio)
	}
	return size
}

func (cp *Checkpoint) decodeFrontier(payload []byte) error {
	r := reader{buf: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) {
		return fmt.Errorf("implausible frontier count %d", count)
	}
	fes := make([]FrontierEntry, count)
	for i := range fes {
		fes[i].Node = int32(r.uvarint())
		fes[i].Prio = r.varint()
	}
	if r.failed {
		return errors.New("truncated frontier section")
	}
	cp.Frontier = fes
	return nil
}

// int32sSize is len(appendInt32s(nil, vs)).
func int32sSize(vs []int32) int {
	size := uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		size += varintLen(int64(v))
	}
	return size
}

func appendInt32s(buf []byte, vs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// reader is a failure-latching varint cursor: every read after an overrun
// returns zero and sets failed, so decoders check once per record instead
// of on every field. It advances an offset rather than reslicing buf, so
// a read stores no pointer (and needs no GC write barrier).
type reader struct {
	buf    []byte
	off    int
	failed bool
}

// left is the number of unread bytes.
func (r *reader) left() int { return len(r.buf) - r.off }

func (r *reader) byte() byte {
	if r.off >= len(r.buf) {
		r.failed = true
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	// One-byte values — most locations, integers and small bounds — skip
	// the general decoder.
	if off := r.off; off < len(r.buf) {
		if b := r.buf[off]; b < 0x80 {
			r.off = off + 1
			return uint64(b)
		}
	}
	return r.uvarintSlow()
}

func (r *reader) uvarintSlow() uint64 {
	v, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.failed = true
		return 0
	}
	r.off += k
	return v
}

// skip passes over n varints.
func (r *reader) skip(n int) {
	for ; n > 0 && !r.failed; n-- {
		if off := r.off; off < len(r.buf) && r.buf[off] < 0x80 {
			r.off = off + 1
			continue
		}
		r.uvarintSlow()
	}
}

// varint is binary.Varint over uvarint: the zigzag decoding.
func (r *reader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}
