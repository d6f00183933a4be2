package plant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GuideSet selects individual guide families instead of the monolithic
// None/Some/All levels, so a guide-search layer (internal/guide) can
// explore subsets and parameters of the paper's hand-written guides. Every
// family is a pure restriction — extra guards on existing transitions, or
// removed transitions — over the unguided plant, so any schedule found
// under any GuideSet is a valid schedule of the unguided model (the
// soundness argument of Section 4 of the paper, preserved per family).
//
// The guide bookkeeping variables (next, wantlift, cdest, creqby) are
// declared and maintained whenever any of the Some-level families is
// enabled; assignments to them never gate behaviour, so candidates differ
// only in the guards the enabled families contribute. This keeps every
// combination well-formed and makes scoring comparable across candidates.
type GuideSet struct {
	// Route adds the ordering guards of the paper's Figure 4: a batch
	// moves only along the direct route toward its `next` destination and
	// is lifted off a track only when its destination lies elsewhere.
	Route bool
	// Steer programs each crane's destination (cdest) when it picks a
	// batch up and restricts loaded-crane moves and set-downs to that
	// destination.
	Steer bool
	// Demand lets an empty crane move only toward a flagged pickup
	// (wantlift) or to give way to the loaded crane (creq) — the paper's
	// demand-driven crane discipline.
	Demand bool
	// Regions confines each crane to its work region of the overhead
	// track (crane 1 the track side, crane 2 the caster side) — a
	// resource-reservation guide realized by removing transitions.
	Regions bool
	// BufferGate reserves the buffer exit: a buffered ladle leaves only
	// when it is the next to cast and the holding place is free.
	BufferGate bool
	// Balance starts a batch on the emptier track and biases machine
	// choice toward staying on the current track (the paper's first two
	// guide expressions).
	Balance bool
	// CastPace commits to a cast only when the next ladle of the
	// production list is already staged near the caster (the paper's
	// `progress` guide; AllGuides only).
	CastPace bool
	// PourOrder pours batches in production-list order (the paper's
	// `nextbatch` guide; AllGuides only).
	PourOrder bool
	// PourWindow bounds how many casts a pour may run ahead of the caster
	// (the pour-pacing time window; 0 disables the bound). It is the
	// guide portfolio's numeric parameter.
	PourWindow int
}

// someLevel reports whether any Some-level family is enabled — the
// condition under which the shared guide bookkeeping (next, wantlift,
// cdest, creqby) is compiled into the model.
func (g GuideSet) someLevel() bool {
	return g.Route || g.Steer || g.Demand || g.Regions || g.BufferGate || g.Balance
}

// Empty reports whether no guide family is enabled at all.
func (g GuideSet) Empty() bool { return g == GuideSet{} }

// String renders the set compactly ("route+steer+window=4"; "none" when
// empty), stable across calls, so it can name models and cache keys.
func (g GuideSet) String() string {
	var parts []string
	for _, f := range [...]struct {
		on   bool
		name string
	}{
		{g.Route, "route"},
		{g.Steer, "steer"},
		{g.Demand, "demand"},
		{g.Regions, "regions"},
		{g.BufferGate, "buffergate"},
		{g.Balance, "balance"},
		{g.CastPace, "castpace"},
		{g.PourOrder, "pourorder"},
	} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	if g.PourWindow > 0 {
		parts = append(parts, "window="+strconv.Itoa(g.PourWindow))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseGuideSet parses the compact rendering of String ("route+steer",
// "castpace+window=4", "none"), so guide sets can round-trip through CLI
// flags, JSON results, and warm-start files. The empty string and "none"
// both parse to the empty set.
func ParseGuideSet(s string) (GuideSet, error) {
	var g GuideSet
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "none") {
		return g, nil
	}
	for _, part := range strings.Split(s, "+") {
		part = strings.ToLower(strings.TrimSpace(part))
		switch part {
		case "route":
			g.Route = true
		case "steer":
			g.Steer = true
		case "demand":
			g.Demand = true
		case "regions":
			g.Regions = true
		case "buffergate":
			g.BufferGate = true
		case "balance":
			g.Balance = true
		case "castpace":
			g.CastPace = true
		case "pourorder":
			g.PourOrder = true
		default:
			if w, ok := strings.CutPrefix(part, "window="); ok {
				n, err := strconv.Atoi(w)
				if err != nil || n <= 0 {
					return GuideSet{}, fmt.Errorf("plant: bad pour window %q in guide set %q", w, s)
				}
				g.PourWindow = n
				continue
			}
			return GuideSet{}, fmt.Errorf("plant: unknown guide family %q in guide set %q", part, s)
		}
	}
	return g, nil
}

// Names returns the enabled family names in a stable order (the numeric
// window parameter appears as "window=k").
func (g GuideSet) Names() []string {
	s := g.String()
	if s == "none" {
		return nil
	}
	names := strings.Split(s, "+")
	sort.Strings(names)
	return names
}

// GuideSet expands a preset level into its family set. pourWindow is the
// pour-pacing window the AllGuides preset uses (<= 0 means the default 4,
// mirroring Config.PourLookahead).
func (l GuideLevel) GuideSet(pourWindow int) GuideSet {
	if pourWindow <= 0 {
		pourWindow = 4
	}
	switch l {
	case SomeGuides:
		return GuideSet{
			Route: true, Steer: true, Demand: true,
			Regions: true, BufferGate: true, Balance: true,
		}
	case AllGuides:
		return GuideSet{
			Route: true, Steer: true, Demand: true,
			Regions: true, BufferGate: true, Balance: true,
			CastPace: true, PourOrder: true, PourWindow: pourWindow,
		}
	default:
		return GuideSet{}
	}
}

// ParseGuideLevel parses a guide level name ("none", "some", "all",
// case-insensitive), the single place the string forms are defined —
// cmd/ flag blocks and the serve request schema all go through it.
func ParseGuideLevel(s string) (GuideLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return NoGuides, nil
	case "some":
		return SomeGuides, nil
	case "all":
		return AllGuides, nil
	default:
		return 0, fmt.Errorf("plant: unknown guide level %q (want none, some, or all)", s)
	}
}

// Set implements flag.Value, so a GuideLevel can back a -guides flag
// directly (flag.TextVar or flag.Var both work).
func (g *GuideLevel) Set(s string) error {
	l, err := ParseGuideLevel(s)
	if err != nil {
		return err
	}
	*g = l
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (g GuideLevel) MarshalText() ([]byte, error) {
	switch g {
	case NoGuides, SomeGuides, AllGuides:
		return []byte(g.String()), nil
	}
	return nil, fmt.Errorf("plant: invalid guide level %d", int(g))
}

// UnmarshalText implements encoding.TextUnmarshaler (also used by
// encoding/json for string-typed guide fields).
func (g *GuideLevel) UnmarshalText(text []byte) error {
	return g.Set(string(text))
}
