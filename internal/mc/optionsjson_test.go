package mc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestOptionsJSONRoundTrip(t *testing.T) {
	orig := DefaultOptions(BFS)
	orig.HashBits = 24
	orig.Workers = 4
	orig.MaxStates = 12345
	orig.MaxMemory = 64 << 20
	orig.Timeout = 1500 * time.Millisecond
	orig.Compact = false

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Wire round-trips exactly the client-settable projection; the
	// process-local fields are zero on both sides here.
	if back != orig {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

// TestOptionsUnmarshalOverlays: absent fields keep the receiver's values —
// the receiver is the tri-state's "default" arm.
func TestOptionsUnmarshalOverlays(t *testing.T) {
	opts := DefaultOptions(DFS)
	if !opts.Compact || !opts.Inclusion {
		t.Fatal("test assumes compact store and inclusion default on")
	}
	if err := json.Unmarshal([]byte(`{"workers": 3}`), &opts); err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 {
		t.Errorf("workers = %d, want 3", opts.Workers)
	}
	if !opts.Compact || !opts.Inclusion || opts.Search != DFS {
		t.Errorf("absent fields did not keep defaults: %+v", opts)
	}
	// Explicit false overrides the default — the old *bool tri-state.
	if err := json.Unmarshal([]byte(`{"compact": false}`), &opts); err != nil {
		t.Fatal(err)
	}
	if opts.Compact {
		t.Error("explicit compact=false ignored")
	}
}

// TestOptionsUnmarshalLegacyAliases: the pre-/v1 aliases are gone, and
// unknown keys are rejected rather than ignored — a client still sending
// no_inclusion must not quietly get inclusion checking on.
func TestOptionsUnmarshalLegacyAliases(t *testing.T) {
	for _, doc := range []string{
		`{"no_inclusion": true}`,
		`{"no_active_clocks": true}`,
		`{"max_memory_mb": 2}`,
		`{"inclusion": false, "no_inclusion": true}`,
		`{"serach": "bfs"}`,
	} {
		opts := DefaultOptions(DFS)
		err := json.Unmarshal([]byte(doc), &opts)
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown-field error", doc, err)
		}
	}
}

func TestOptionsUnmarshalRejectsNegativeTimeout(t *testing.T) {
	opts := DefaultOptions(DFS)
	if err := json.Unmarshal([]byte(`{"timeout_seconds": -1}`), &opts); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestCanonicalJSONCollapsesSpellings: spellings the engine runs
// identically share one canonical encoding (the serve cache-key
// ingredient), and every field is explicit in it.
func TestCanonicalJSONCollapsesSpellings(t *testing.T) {
	a := DefaultOptions(BSH)
	b := DefaultOptions(BSH)
	a.Workers = 0
	b.Workers = 8 // BSH is inherently sequential; normalization pins workers
	ca, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("equivalent options canonicalize differently:\n%s\n%s", ca, cb)
	}
	for _, field := range []string{
		"search", "hash_bits", "coarse_hash", "inclusion", "compact",
		"extrapolate", "classic_extrapolation", "active_clocks", "workers",
		"max_states", "max_memory_bytes", "timeout_seconds", "time_clock",
		"time_horizon",
	} {
		if !bytes.Contains(ca, []byte(`"`+field+`"`)) {
			t.Errorf("canonical encoding omits %q: %s", field, ca)
		}
	}
}

func TestSearchOrderText(t *testing.T) {
	for _, s := range []SearchOrder{BFS, DFS, BSH, BestTime} {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back SearchOrder
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, text, back)
		}
	}
	if _, err := ParseSearchOrder("quantum"); err == nil {
		t.Error("unknown order accepted")
	}
}
