package mc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// ParseSearchOrder parses a search order name ("bfs", "dfs", "bsh",
// "besttime", case-insensitive). It is the single place the string forms
// are defined; CLI flags and the serve request schema both go through it.
func ParseSearchOrder(s string) (SearchOrder, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "bfs":
		return BFS, nil
	case "dfs":
		return DFS, nil
	case "bsh":
		return BSH, nil
	case "besttime":
		return BestTime, nil
	default:
		return 0, fmt.Errorf("mc: unknown search order %q (want bfs, dfs, bsh, or besttime)", s)
	}
}

// MarshalText implements encoding.TextMarshaler (lowercase wire form).
func (s SearchOrder) MarshalText() ([]byte, error) {
	switch s {
	case BFS, DFS, BSH, BestTime:
		return []byte(strings.ToLower(s.String())), nil
	}
	return nil, fmt.Errorf("mc: invalid search order %d", int(s))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SearchOrder) UnmarshalText(text []byte) error {
	v, err := ParseSearchOrder(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// optionsWire is the canonical JSON shape of the client-settable Options
// fields. Every field is emitted on marshal (no omitempty), so the
// encoding of normalized options is a stable cache-key ingredient; on
// unmarshal the pointer fields distinguish "absent" from "zero", folding
// the old per-caller tri-state plumbing into one place.
type optionsWire struct {
	Search               *SearchOrder `json:"search,omitempty"`
	HashBits             *int         `json:"hash_bits,omitempty"`
	CoarseHash           *bool        `json:"coarse_hash,omitempty"`
	Inclusion            *bool        `json:"inclusion,omitempty"`
	Compact              *bool        `json:"compact,omitempty"`
	Extrapolate          *bool        `json:"extrapolate,omitempty"`
	ClassicExtrapolation *bool        `json:"classic_extrapolation,omitempty"`
	ActiveClocks         *bool        `json:"active_clocks,omitempty"`
	Workers              *int         `json:"workers,omitempty"`
	MaxStates            *int         `json:"max_states,omitempty"`
	MaxMemoryBytes       *int64       `json:"max_memory_bytes,omitempty"`
	TimeoutSeconds       *float64     `json:"timeout_seconds,omitempty"`
	TimeClock            *int         `json:"time_clock,omitempty"`
	TimeHorizon          *int32       `json:"time_horizon,omitempty"`
}

// MarshalJSON encodes the client-settable options canonically: every
// field explicit, process-local fields (Observer, Profile, SnapshotEvery)
// excluded. Marshaling normalized options therefore yields a canonical
// byte string — the projection serve's result cache keys on.
func (o Options) MarshalJSON() ([]byte, error) {
	secs := o.Timeout.Seconds()
	w := optionsWire{
		Search:               &o.Search,
		HashBits:             &o.HashBits,
		CoarseHash:           &o.CoarseHash,
		Inclusion:            &o.Inclusion,
		Compact:              &o.Compact,
		Extrapolate:          &o.Extrapolate,
		ClassicExtrapolation: &o.ClassicExtrapolation,
		ActiveClocks:         &o.ActiveClocks,
		Workers:              &o.Workers,
		MaxStates:            &o.MaxStates,
		MaxMemoryBytes:       &o.MaxMemory,
		TimeoutSeconds:       &secs,
		TimeClock:            &o.TimeClock,
		TimeHorizon:          &o.TimeHorizon,
	}
	return json.Marshal(w)
}

// UnmarshalJSON overlays the fields present in data onto the receiver:
// absent fields keep their current values, so callers seed the receiver
// with DefaultOptions (or a fully-resolved server default) and clients
// override only what they set. This replaces the old tri-state request
// structs — the receiver is the third state. An unknown key is an error,
// not a silent no-op: a misspelled or retired option (such as the pre-/v1
// no_inclusion) would otherwise run the search with the default instead.
func (o *Options) UnmarshalJSON(data []byte) error {
	var w optionsWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	if w.Search != nil {
		o.Search = *w.Search
	}
	if w.HashBits != nil {
		o.HashBits = *w.HashBits
	}
	if w.CoarseHash != nil {
		o.CoarseHash = *w.CoarseHash
	}
	if w.Inclusion != nil {
		o.Inclusion = *w.Inclusion
	}
	if w.Compact != nil {
		o.Compact = *w.Compact
	}
	if w.Extrapolate != nil {
		o.Extrapolate = *w.Extrapolate
	}
	if w.ClassicExtrapolation != nil {
		o.ClassicExtrapolation = *w.ClassicExtrapolation
	}
	if w.ActiveClocks != nil {
		o.ActiveClocks = *w.ActiveClocks
	}
	if w.Workers != nil {
		o.Workers = *w.Workers
	}
	if w.MaxStates != nil {
		o.MaxStates = *w.MaxStates
	}
	if w.MaxMemoryBytes != nil {
		o.MaxMemory = *w.MaxMemoryBytes
	}
	if w.TimeoutSeconds != nil {
		if *w.TimeoutSeconds < 0 {
			return fmt.Errorf("mc: timeout_seconds must be >= 0")
		}
		o.Timeout = time.Duration(*w.TimeoutSeconds * float64(time.Second))
	}
	if w.TimeClock != nil {
		o.TimeClock = *w.TimeClock
	}
	if w.TimeHorizon != nil {
		o.TimeHorizon = *w.TimeHorizon
	}
	return nil
}

// CanonicalJSON returns the canonical encoding of the normalized options
// — the exact configuration the search loops run with: the byte string
// two option values share exactly when the engine would run them
// identically. It is the options half of serve's cache key and of any
// other content-addressed identity; keying on the raw options would let,
// e.g., Workers 0 and Workers 1 (both sequential) miss each other's
// cached verdicts.
func (o Options) CanonicalJSON() ([]byte, error) {
	n, err := o.normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}
