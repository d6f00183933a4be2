package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile accumulates self CPU time per Go package from runtime/pprof
// CPU profiles. Only the handful of profile.proto fields needed to map a
// sample's innermost frame to its function name are decoded.
type cpuProfile struct {
	byPkg map[string]int64 // CPU nanoseconds whose innermost frame is in the package
	total int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byPkg: make(map[string]int64)} }

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	profSample    = 2
	profLocation  = 4
	profFunction  = 5
	profStrings   = 6
	sampleLocIDs  = 1
	sampleValues  = 2
	locID         = 1
	locLine       = 4
	lineFuncID    = 1
	funcID        = 1
	funcName      = 2
	wireVarint    = 0
	wireFixed64   = 1
	wireBytes     = 2
	wireFixed32   = 5
	maxFieldBytes = 1 << 30
)

type protoField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

// fields splits one protobuf message into its fields.
func fields(msg []byte) ([]protoField, error) {
	var out []protoField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case wireFixed64:
			if len(msg) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			f.v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case wireFixed32:
			if len(msg) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			f.v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > maxFieldBytes || uint64(len(msg)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// add decodes one gzipped CPU profile and adds its samples.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return err
	}
	var strs []string
	funcNameIdx := make(map[uint64]uint64) // function id → string index
	leafFunc := make(map[uint64]uint64)    // location id → innermost function id
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.b))
		case profFunction:
			sub, err := fields(f.b)
			if err != nil {
				return err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case funcID:
					id = g.v
				case funcName:
					name = g.v
				}
			}
			funcNameIdx[id] = name
		case profLocation:
			sub, err := fields(f.b)
			if err != nil {
				return err
			}
			var id, fn uint64
			seenLine := false
			for _, g := range sub {
				switch {
				case g.num == locID:
					id = g.v
				case g.num == locLine && !seenLine:
					// The first line is the innermost inlined frame.
					seenLine = true
					lf, err := fields(g.b)
					if err != nil {
						return err
					}
					for _, h := range lf {
						if h.num == lineFuncID {
							fn = h.v
						}
					}
				}
			}
			leafFunc[id] = fn
		case profSample:
			sub, err := fields(f.b)
			if err != nil {
				return err
			}
			var s sample
			gotLeaf := false
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return err
				}
				switch g.num {
				case sampleLocIDs:
					if !gotLeaf && len(vs) > 0 {
						s.leaf, gotLeaf = vs[0], true
					}
				case sampleValues:
					if len(vs) > 0 {
						// CPU profiles carry [samples, nanoseconds].
						s.value = int64(vs[len(vs)-1])
					}
				}
			}
			samples = append(samples, s)
		}
	}
	for _, s := range samples {
		name := ""
		if si := funcNameIdx[leafFunc[s.leaf]]; int(si) < len(strs) {
			name = strs[si]
		}
		p.byPkg[packageOf(name)] += s.value
		p.total += s.value
	}
	return nil
}

// shares returns each package's share of the accumulated CPU time.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(p.byPkg))
	for pkg, v := range p.byPkg {
		out[pkg] = ratio(float64(v), float64(p.total))
	}
	return out
}

// packageOf returns the import path of a symbol name such as
// "guidedta/internal/dbm.(*DBM).Close" or "runtime.mallocgc".
func packageOf(sym string) string {
	if sym == "" {
		return "unknown"
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}
