package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean(1, 2, 6) = %v, want 3", got)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	// One request per operation: pooled, and 20 samples leave 2 beyond p90.
	var single [][]float64
	for _, x := range seq(20) {
		single = append(single, []float64{x})
	}
	if p50, p90, ok := latencyPercentiles(single); p50 != 10.5 || p90 != 18 || ok {
		t.Errorf("pooled: got %v, %v, %v; want 10.5, 18, false", p50, p90, ok)
	}
	// Streams: the p50 takes each request at its fastest pass. A slow
	// stretch covers the first half of one pass and the second half of the
	// other, so neither pass alone has the median of seq(100). The p90 is
	// the first quartile of the passes' own, 140 in early and 95 in late.
	early, late := seq(100), seq(100)
	for i := range 50 {
		early[i] += 50
		late[50+i] += 50
	}
	if p50, p90, ok := latencyPercentiles([][]float64{early, late}); p50 != 50.5 || p90 != 95 || !ok {
		t.Errorf("streams: got %v, %v, %v; want 50.5, 95, true", p50, p90, ok)
	}
	// One undisturbed pass (p90 90) among seven disturbed ones (p90 95)
	// sets the median but not the p90.
	passes := [][]float64{seq(100)}
	for range 7 {
		passes = append(passes, late)
	}
	if p50, p90, ok := latencyPercentiles(passes); p50 != 50.5 || p90 != 95 || !ok {
		t.Errorf("one undisturbed pass: got %v, %v, %v; want 50.5, 95, true", p50, p90, ok)
	}
	if _, _, ok := latencyPercentiles([][]float64{seq(50), seq(50)}); ok {
		t.Error("a stream of 50 requests leaves 5 beyond p90, yet p90 was reported as supported")
	}
}

func TestFastestWall(t *testing.T) {
	if got := fastestWall([][]float64{{3}, {2}, {4}}); got != 2 {
		t.Errorf("one part: got %v, want the fastest operation, 2", got)
	}
	// Each part at its fastest: 1 from the first operation, 2 from the
	// second, although neither operation took 3.
	if got := fastestWall([][]float64{{1, 5}, {4, 2}}); got != 3 {
		t.Errorf("two parts: got %v, want 3", got)
	}
	if got := fastestWall(nil); got != 0 {
		t.Errorf("no operations: got %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(seq(10), 0.9); got != 9 {
		t.Errorf("percentile(1..10, 0.9) = %v, want 9", got)
	}
}

// TestTailPercentileSupport pins the rule that a p90 is reported as
// supported only with at least ten samples beyond it.
func TestTailPercentileSupport(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{0, 0, false},
		{10, 1, false},
		{99, 9, false},
		{100, 10, true},
		{101, 10, true},
		{288, 28, true},
	} {
		if got := samplesBeyond(tc.n, 0.9); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, 0.9) = %d, want %d", tc.n, got, tc.beyond)
		}
		_, ok := tailPercentile(seq(tc.n), 0.9)
		if ok != tc.ok {
			t.Errorf("tailPercentile over %d samples: supported = %v, want %v", tc.n, ok, tc.ok)
		}
	}
	// p99 needs ten samples above rank 99% of n: 1000 samples.
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if _, ok := tailPercentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples reported as unsupported")
	}
}

func TestFailedRatio(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 99, 0.01},
		{1, 99, 0.02},
		{0, 0, 1},
		{4, 4, 1},
	} {
		if got := failedRatio(tc.failed, tc.attempted); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("failedRatio(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
	if failedRatio(0, 1000) <= 0 {
		t.Error("failedRatio is 0 with no failures; a relative bound needs it positive")
	}
	if r0, r1 := failedRatio(0, 1000), failedRatio(1, 1000); r1 != 2*r0 {
		t.Errorf("one failure moved the ratio from %v to %v, want it doubled", r0, r1)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50); a third covers [60, 70).
		{ID: 1, Parent: 0, Name: "mc.explore", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "mc.concretize", Start: ms(30), End: ms(50)},
		{ID: 3, Parent: 0, Name: "sim.run", Start: ms(60), End: ms(70)},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 1, Name: "dbm.close", Start: ms(15), End: ms(25)},
		// A child running past its parent's end is clipped.
		{ID: 5, Parent: 3, Name: "sim.step", Start: ms(65), End: ms(80)},
	}
	want := []time.Duration{ms(50), ms(20), ms(20), ms(5), ms(10), ms(15)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelfTimes(spans)
	if layers["mc"] != ms(40) || layers["op"] != ms(50) || layers["sim"] != ms(20) || layers["dbm"] != ms(10) {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestSpanMillisSumsPerRequest(t *testing.T) {
	spans := []span{
		{Req: 1, Name: "tadsl.parse", Start: ms(0), End: ms(2)},
		{Req: 1, Name: "tadsl.parse", Start: ms(5), End: ms(8)},
		{Req: 2, Name: "tadsl.parse", Start: ms(0), End: ms(4)},
		{Req: 2, Name: "mc.explore", Start: ms(4), End: ms(9)},
	}
	got := spanMillis(spans, "tadsl.parse")
	if len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Errorf("spanMillis = %v, want [5 4]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("mc.explore", tr.begin("op", -1, 0), 0, func() { ran = true })
	if !ran {
		t.Fatal("nil tracer skipped the traced call")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"guidedta/internal/dbm.(*DBM).Close":          "guidedta/internal/dbm",
		"guidedta/internal/mc.(*engine).expand.func1": "guidedta/internal/mc",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "internal/runtime/maps",
		"memeqbody": "memeqbody",
		"":          "unknown",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestCPUProfileDecodes decodes a real runtime/pprof CPU profile and finds
// this package's busy loop in it.
func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p := newCPUProfile()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("no CPU samples taken")
	}
	shares := p.shares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// A test binary names this package by its import path, the command by
	// "main".
	if own := shares["guidedta/perfbench"] + shares["main"] + shares["math"]; own < 0.5 {
		t.Errorf("busy loop's package holds %.2f of the profile, want most of it: %v", own, shares)
	}
}
