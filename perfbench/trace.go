package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request (a measured operation, or one HTTP request of the serve stream)
// share Req; Parent is the id of the span that caused this one (-1 for a
// root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's prefix before the first dot: "mc.explore" is in
// layer "mc".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced measurement runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelfTimes sums self time per layer.
func layerSelfTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// spanMillis returns, per request, the summed duration in milliseconds of
// the spans called name (requests without such a span are left out).
func spanMillis(spans []span, name string) []float64 {
	byReq := make(map[int]time.Duration)
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] += s.dur()
	}
	out := make([]float64, 0, len(order))
	for _, r := range order {
		out = append(out, byReq[r].Seconds()*1000)
	}
	return out
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// WallUntracedS and WallTracedS are the mean wall times of the
	// untraced and traced operations the run alternated between; OverheadS
	// is their difference, the cost of tracing.
	WallUntracedS float64 `json:"wall_untraced_s"`
	WallTracedS   float64 `json:"wall_traced_s"`
	OverheadS     float64 `json:"overhead_s"`
	// SelfMS is the self time per layer summed over all traced
	// operations.
	SelfMS map[string]float64 `json:"self_ms"`
	// CPUShares is each Go package's share of the traced operations' CPU
	// profile samples, attributed to the innermost frame.
	CPUShares  map[string]float64 `json:"cpu_shares"`
	GCCPUShare float64            `json:"gc_cpu_share"`
	Metrics    map[string]float64 `json:"metrics"`
	Spans      []span             `json:"spans"`
}

func (f *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", f.Workload, f.Seed))
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
