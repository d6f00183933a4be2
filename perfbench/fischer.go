package main

import (
	"context"
	"fmt"
	"strings"

	"guidedta/internal/fuzz"
	"guidedta/internal/mc"
	"guidedta/internal/tadsl"
)

// fischerProcs sizes verify-fischer: Fischer's protocol for six processes
// explores about 48.5k states, a second of exhaustive search.
const fischerProcs = 6

// fischerModel returns tadsl text of Fischer's mutual-exclusion protocol
// for n processes and the query "P1 and P2 in their critical sections at
// once". A process requests within k time units (invariant x <= k) and
// enters after waiting x > wait; the protocol is correct, and the query
// unreachable, exactly when wait >= k.
func fischerModel(n, k, wait int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system fischer%dk%dw%d\n\nint id 0\nclock", n, k, wait)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString("\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, `
automaton P%[1]d {
    init loc idle
    loc req { inv x%[1]d <= %[2]d }
    loc wait
    loc cs
    idle -> req { guard id == 0; do x%[1]d := 0 }
    req -> wait { do id := %[1]d, x%[1]d := 0 }
    wait -> cs { guard x%[1]d > %[3]d && id == %[1]d }
    wait -> req { guard id == 0; do x%[1]d := 0 }
    cs -> idle { do id := 0 }
}
`, i, k, wait)
	}
	b.WriteString("\nquery exists P1.cs && P2.cs\n")
	return b.String()
}

// verifyFischer checks the correct protocol exhaustively by BFS and finds
// the mutual-exclusion violation of the broken one. The instance does not
// depend on the seed.
type verifyFischer struct {
	correct, broken string
}

func newVerifyFischer(int64) workload { return &verifyFischer{} }

// fischerDetail is what a traced verify-fischer operation hands to layers:
// the effort of both searches summed.
type fischerDetail struct {
	counts        searchCounts
	exploreAllocs uint64 // heap objects allocated by the searches
}

func (w *verifyFischer) setup(ctx context.Context) error {
	w.correct = fischerModel(fischerProcs, 2, 2)
	w.broken = fischerModel(fischerProcs, 2, 1)
	r, err := w.op(ctx, nil, -1)
	if err != nil {
		return err
	}
	return r.check()
}

func (w *verifyFischer) reps(seconds float64) int { return repsFor(seconds, 1.3) }

// verification is one model's parse, hash and search.
type verification struct {
	model *tadsl.Model
	res   mc.Result
}

// verify parses, hashes and searches one model, with spans when traced.
func (w *verifyFischer) verify(ctx context.Context, src string, tr *tracer, parent, req int, d *fischerDetail) (verification, error) {
	var v verification
	var err error
	if tr.do("tadsl.parse", parent, req, func() { v.model, err = tadsl.Parse(src) }); err != nil {
		return v, err
	}
	if !v.model.HasQuery {
		return v, fmt.Errorf("model has no query")
	}
	if tr.do("tadsl.hash", parent, req, func() { _, err = tadsl.Hash(v.model.Sys, &v.model.Query) }); err != nil {
		return v, err
	}
	tr.do("mc.explore", parent, req, func() {
		var c0 runtimeCounters
		if d != nil {
			c0 = readCounters()
		}
		v.res, err = mc.ExploreContext(ctx, v.model.Sys, v.model.Query, mc.DefaultOptions(mc.BFS))
		if d != nil {
			d.exploreAllocs += readCounters().sub(c0).allocObjects
			d.counts.add(v.res.Stats)
		}
	})
	return v, err
}

func (w *verifyFischer) op(ctx context.Context, tr *tracer, req int) (opResult, error) {
	r := opResult{attempted: 2}
	var d *fischerDetail
	if tr != nil {
		d = &fischerDetail{}
	}
	root := tr.begin("op", -1, req)
	sw := startWatch()
	good, err := w.verify(ctx, w.correct, tr, root, req, d)
	if err != nil {
		return r, err
	}
	bad, err := w.verify(ctx, w.broken, tr, root, req, d)
	if err != nil {
		return r, err
	}
	sw.stop(&r)
	tr.end(root)
	if d != nil {
		r.detail = *d
	}
	r.latenciesMS = []float64{r.wall.Seconds() * 1000}
	r.searchMem = max(good.res.Stats.MemBytes, bad.res.Stats.MemBytes)
	r.check = func() error {
		if good.res.Found || good.res.Abort != mc.AbortNone {
			return fmt.Errorf("correct protocol: found=%v abort=%q, want an exhaustive \"not found\"", good.res.Found, good.res.Abort)
		}
		if !bad.res.Found {
			return fmt.Errorf("broken protocol: mutual-exclusion violation not found (%v)", bad.res.Stats)
		}
		if err := fuzz.CheckTrace(bad.model.Sys, bad.model.Query, bad.res.Trace); err != nil {
			return fmt.Errorf("broken protocol: witness invalid: %w", err)
		}
		return nil
	}
	return r, nil
}

func (w *verifyFischer) layers(spans []span, traced []opResult) map[string]float64 {
	m := make(map[string]float64)
	var allocObjs []float64
	var d fischerDetail
	for _, r := range traced {
		d = r.detail.(fischerDetail)
		allocObjs = append(allocObjs, float64(d.exploreAllocs))
	}
	// Times are per operation: two parses, hashes and searches each.
	addSearchLayer(m, d.counts, median(spanMillis(spans, "mc.explore"))/1000)
	m["mc.allocs_per_state"] = ratio(median(allocObjs), float64(d.counts.explored))
	m["tadsl.parse_ms"] = median(spanMillis(spans, "tadsl.parse"))
	m["tadsl.hash_ms"] = median(spanMillis(spans, "tadsl.hash"))
	return m
}
