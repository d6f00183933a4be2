package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a tail percentile before
// the benchmark reports it as supported.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank of the nearest-rank q-quantile of n
// samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// samplesBeyond is how many of n samples rank above the q-quantile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, q)
}

// tailPercentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it; a tail percentile without that
// support is reported as unsupported.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	return percentile(xs, q), samplesBeyond(len(xs), q) >= minBeyond
}

// latencyPercentiles returns a run's p50 and p90 latency, given each
// operation's request latencies, and whether the p90 has minBeyond samples
// beyond it. Operations of one request pool their latencies over the run.
//
// Operations that replay the same stream of many requests are passes over
// it. The p50 is the median of each request's fastest latency over the
// passes, as fastestWall takes each part at its fastest: the host's slow
// stretches, often shorter than a pass, cover some passes of a request and
// not others, and then move neither. The p90 is the first quartile, over
// the passes, of each pass's own p90. A tail is the share of requests that
// something stalled, the program's garbage collector or checkpoint writes
// as much as the host, and per-request minima would drop it; the quartile
// keeps to the passes the host slowed least without hanging on the one
// pass it happened to leave alone.
func latencyPercentiles(ops [][]float64) (p50, p90 float64, supported bool) {
	if len(ops) == 0 {
		return 0, 0, false
	}
	if len(ops[0]) <= 1 {
		var pooled []float64
		for _, l := range ops {
			pooled = append(pooled, l...)
		}
		p90, supported = tailPercentile(pooled, 0.9)
		return median(pooled), p90, supported
	}
	p90s := make([]float64, len(ops))
	supported = true
	for i, l := range ops {
		var ok bool
		p90s[i], ok = tailPercentile(l, 0.9)
		supported = supported && ok
	}
	return median(fastestEach(ops)), percentile(p90s, 0.25), supported
}

// fastestEach returns, for each index of the passes (all of one length),
// its smallest value over them.
func fastestEach(passes [][]float64) []float64 {
	best := slices.Clone(passes[0])
	for _, p := range passes[1:] {
		for i, x := range p {
			best[i] = min(best[i], x)
		}
	}
	return best
}

// fastestWall returns wall_s, given each operation's wall times of its
// parts (one part for an operation without parts): the sum of each part's
// fastest time over the run. For operations of one part that is the
// fastest operation. serve-resynth's parts are its requests, which one
// client sends one after another, so a slow stretch of the host that
// covers some requests of every pass moves none of them.
func fastestWall(ops [][]float64) float64 {
	if len(ops) == 0 {
		return 0
	}
	var sum float64
	for _, b := range fastestEach(ops) {
		sum += b
	}
	return sum
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// failedRatio is the add-one estimate (failed+1)/(attempted+1) of the
// share of operations that fail. It is never 0, so a relative bound can be
// placed on it, and one new failure doubles it.
func failedRatio(failed, attempted int) float64 {
	return float64(failed+1) / float64(attempted+1)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Runtime counters read through runtime/metrics.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters is one reading of the counters above.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readCounters() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// sub returns the counter deltas c − earlier.
func (c runtimeCounters) sub(earlier runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes:   c.allocBytes - earlier.allocBytes,
		allocObjects: c.allocObjects - earlier.allocObjects,
		gcCPU:        c.gcCPU - earlier.gcCPU,
		totalCPU:     c.totalCPU - earlier.totalCPU,
	}
}

// add returns the counter sums c + o.
func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes:   c.allocBytes + o.allocBytes,
		allocObjects: c.allocObjects + o.allocObjects,
		gcCPU:        c.gcCPU + o.gcCPU,
		totalCPU:     c.totalCPU + o.totalCPU,
	}
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set, so that VmHWM covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes returns the process's resident-set high-water mark (VmHWM).
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

const mib = 1 << 20
