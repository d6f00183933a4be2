// Load-generator mode: mcbench -serve-url points the benchmark at a
// running mcserved instance instead of the in-process suite. A pool of
// concurrent clients POSTs a small model mix to /jobs?wait=1 and the
// client-observed latency distribution (p50/p90/p99) plus the cache hit
// rate land in BENCH_serve.json — the serving-layer companion to the
// engine trajectory in BENCH_mc.json.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// loadGenConfig is the -serve-* flag block.
type loadGenConfig struct {
	url        string
	clients    int
	requests   int
	models     int // distinct models in the mix (each first POST is a miss)
	out        string
	checkpoint time.Duration // the server's -checkpoint-every cadence, recorded in the output
}

// serveBench is the BENCH_serve.json layout.
type serveBench struct {
	Generated      string `json:"generated"`
	GoVersion      string `json:"go_version"`
	ServeURL       string `json:"serve_url"`
	Clients        int    `json:"clients"`
	Requests       int    `json:"requests"`
	DistinctModels int    `json:"distinct_models"`
	// CheckpointInterval labels a durability-enabled benchmark: the
	// cadence the server under test checkpoints running jobs at
	// (mcserved -checkpoint-every), as passed via -checkpoint-interval.
	CheckpointInterval string         `json:"checkpoint_interval,omitempty"`
	Errors             int64          `json:"errors"`
	Throttled          int64          `json:"throttled_429"`
	SecondsTotal       float64        `json:"seconds_total"`
	ThroughputRPS      float64        `json:"throughput_rps"`
	LatencyMS          latencyMS      `json:"latency_ms"`
	Cache              map[string]int `json:"cache"` // hit/miss/coalesced counts as observed by clients
	CacheHitRate       float64        `json:"cache_hit_rate"`
}

type latencyMS struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// loadModelBody builds one submit body of the mix: Fischer's protocol with
// a varying constant, so the mix has exactly cfg.models distinct cache
// keys. Small instances keep a cache miss to a few milliseconds of search
// — the measurement targets the serving layer, not the engine.
func loadModelBody(variant int) string {
	const n = 4
	k := 2 + variant
	var b strings.Builder
	fmt.Fprintf(&b, "system fischer%dk%d\n\nint id 0\nclock", n, k)
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
    wait -> cs { guard x%[1]d > %[2]d && id == %[1]d }
    wait -> req { guard id == 0; do x%[1]d := 0 }
    cs -> idle { do id := 0 }
}
`, i, k)
	}
	b.WriteString("\nquery exists P1.cs && P2.cs\n")
	body, _ := json.Marshal(map[string]any{
		"model":   b.String(),
		"options": map[string]any{"search": "bfs"},
	})
	return string(body)
}

// runLoadGen drives the server and writes the benchmark file.
func runLoadGen(cfg loadGenConfig) error {
	base := strings.TrimSuffix(cfg.url, "/")
	// Fail fast if nothing is listening before spawning the client pool.
	if resp, err := http.Get(base + "/v1/healthz"); err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	} else {
		resp.Body.Close()
	}

	bodies := make([]string, cfg.models)
	for i := range bodies {
		bodies[i] = loadModelBody(i)
	}

	var (
		next      atomic.Int64
		errs      atomic.Int64
		throttled atomic.Int64
		mu        sync.Mutex
		latencies []float64
		cacheSeen = map[string]int{}
	)
	client := &http.Client{Timeout: 2 * time.Minute}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.requests) {
					return
				}
				body := bodies[int(i)%len(bodies)]
				t0 := time.Now()
				state, err := postOnce(client, base, body, &throttled)
				lat := time.Since(t0).Seconds() * 1000
				mu.Lock()
				if err != nil {
					errs.Add(1)
				} else {
					latencies = append(latencies, lat)
					cacheSeen[state]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := time.Since(start)

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	bench := serveBench{
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		ServeURL:       cfg.url,
		Clients:        cfg.clients,
		Requests:       cfg.requests,
		DistinctModels: cfg.models,
		Errors:         errs.Load(),
		Throttled:      throttled.Load(),
		SecondsTotal:   total.Seconds(),
		Cache:          cacheSeen,
		LatencyMS: latencyMS{
			P50: pct(0.50), P90: pct(0.90), P99: pct(0.99), Max: pct(1.0),
		},
	}
	if cfg.checkpoint > 0 {
		bench.CheckpointInterval = cfg.checkpoint.String()
	}
	if total > 0 {
		bench.ThroughputRPS = float64(len(latencies)) / total.Seconds()
	}
	if n := len(latencies); n > 0 {
		bench.CacheHitRate = float64(cacheSeen["hit"]) / float64(n)
	}

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"mcbench: %d requests, %d clients: p50 %.1fms p99 %.1fms, %.0f req/s, cache hit rate %.2f (%d errors, %d throttled)\n",
		len(latencies), cfg.clients, bench.LatencyMS.P50, bench.LatencyMS.P99,
		bench.ThroughputRPS, bench.CacheHitRate, bench.Errors, bench.Throttled)
	fmt.Fprintf(os.Stderr, "mcbench: wrote %s\n", cfg.out)
	if bench.Errors > 0 {
		return fmt.Errorf("%d request(s) failed", bench.Errors)
	}
	return nil
}

// postOnce submits one job and waits for its settled record, honouring the
// server's admission control: a 429 backs off per Retry-After and retries.
func postOnce(client *http.Client, base, body string, throttled *atomic.Int64) (cacheState string, err error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			throttled.Add(1)
			delay := 50 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if d, perr := time.ParseDuration(ra + "s"); perr == nil {
					delay = d
				}
			}
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		var jj struct {
			State string `json:"state"`
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal(data, &jj); err != nil {
			return "", fmt.Errorf("bad job response: %w", err)
		}
		if jj.State != "done" {
			return "", fmt.Errorf("job settled as %q", jj.State)
		}
		return jj.Cache, nil
	}
}
