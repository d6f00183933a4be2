package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"guidedta/internal/mc"
)

// fischerSrc generates Fischer's protocol for n processes with constant k
// as tadsl source. Small n explores exhaustively in milliseconds; n >= 7
// is effectively unbounded on test hardware and serves as the synthetic
// slow model for cancellation, coalescing, and drain tests. Varying k
// yields distinct models (distinct cache keys) of the same difficulty.
func fischerSrc(n, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system fischer%d\n\nint id 0\nclock", n)
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
	return b.String()
}

// newTestServer starts a serve.Server behind httptest, draining it on
// cleanup so no worker goroutine outlives the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 30 * time.Second // backstop: a broken cancel fails fast
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string, wait bool) (int, JobJSON) {
	t.Helper()
	url := ts.URL + "/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var jj JobJSON
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(data, &jj); err != nil {
			t.Fatalf("POST /jobs: bad response %q: %v", data, err)
		}
	}
	return resp.StatusCode, jj
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var jj JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&jj); err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	return jj
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) (int, JobJSON) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var jj JobJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jj); err != nil {
			t.Fatalf("DELETE /jobs/%s: %v", id, err)
		}
	}
	return resp.StatusCode, jj
}

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func submitBody(model string, opts string) string {
	return fmt.Sprintf(`{"model": %q, "options": %s}`, model, opts)
}

func TestSubmitWaitAndReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, jj := postJob(t, ts, submitBody(fischerSrc(4, 2), `{"search": "bfs"}`), true)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if jj.State != JobDone {
		t.Fatalf("state = %q, want done", jj.State)
	}
	if jj.Cache != CacheMiss {
		t.Fatalf("cache = %q, want miss", jj.Cache)
	}
	if jj.Report == nil {
		t.Fatal("settled job has no report")
	}
	if jj.Report.Result.Found {
		t.Error("fischer4 mutual exclusion reported violated")
	}
	if jj.Report.Result.Abort != "" {
		t.Errorf("abort = %q, want clean exhaustive run", jj.Report.Result.Abort)
	}
	if jj.Report.Stats.StatesExplored == 0 {
		t.Error("report carries no search statistics")
	}
	if jj.Report.Model == nil || jj.Report.Model.SHA256 != jj.ModelSHA256 {
		t.Error("report model hash does not match the job's content address")
	}
	if jj.Report.Snapshots < 1 {
		t.Errorf("snapshots = %d, want >= 1 (final)", jj.Report.Snapshots)
	}
	// The report must round-trip its own schema validation.
	if _, err := json.Marshal(jj.Report); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

func TestCacheHitSecondPost(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := submitBody(fischerSrc(4, 2), `{"search": "bfs"}`)
	_, first := postJob(t, ts, body, true)
	code, second := postJob(t, ts, body, false)
	if code != http.StatusOK {
		t.Fatalf("second POST status = %d, want 200 (settled at admission)", code)
	}
	if second.Cache != CacheHit {
		t.Fatalf("second POST cache = %q, want hit", second.Cache)
	}
	if second.State != JobDone {
		t.Fatalf("second POST state = %q, want done", second.State)
	}
	if second.Report == nil || second.Report.Stats.StatesExplored != first.Report.Stats.StatesExplored {
		t.Fatal("cache hit did not replay the original report")
	}
	if got := srv.Status().ExecutionsStarted; got != 1 {
		t.Fatalf("executions started = %d, want exactly 1", got)
	}
	st := srv.Status()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters = %+v, want 1 hit / 1 miss", st.Cache)
	}
	// Different options must be a different content address.
	_, third := postJob(t, ts, submitBody(fischerSrc(4, 2), `{"search": "dfs"}`), true)
	if third.Cache != CacheMiss {
		t.Fatalf("distinct options cache = %q, want miss", third.Cache)
	}
	if third.Key == second.Key {
		t.Fatal("distinct options produced the same cache key")
	}
	if third.ModelSHA256 != second.ModelSHA256 {
		t.Fatal("same model produced different content hashes")
	}
}

// TestCoalescingSingleExploration is the acceptance criterion: two
// concurrent identical POSTs perform exactly one underlying exploration.
func TestCoalescingSingleExploration(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	// A model too big to finish within its timeout: both requests ride the
	// same bounded execution and share its timeout report.
	body := submitBody(fischerSrc(7, 2), `{"search": "bfs", "timeout_seconds": 1.5}`)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []JobJSON
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, jj := postJob(t, ts, body, true)
			mu.Lock()
			defer mu.Unlock()
			if code != http.StatusOK {
				t.Errorf("POST status = %d, want 200", code)
			}
			results = append(results, jj)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.Status().ExecutionsStarted; got != 1 {
		t.Fatalf("executions started = %d, want exactly 1 for two identical POSTs", got)
	}
	states := map[CacheState]int{}
	for _, jj := range results {
		states[jj.Cache]++
		if jj.Report == nil {
			t.Fatalf("job %s settled without a report", jj.ID)
		}
		if jj.Report.Result.Abort != "timeout" {
			t.Errorf("job %s abort = %q, want timeout", jj.ID, jj.Report.Result.Abort)
		}
	}
	if states[CacheMiss] != 1 || states[CacheCoalesced] != 1 {
		t.Fatalf("admission states = %v, want one miss and one coalesced", states)
	}
	if results[0].Report.Stats.StatesExplored != results[1].Report.Stats.StatesExplored {
		t.Error("coalesced jobs report different statistics — not the same execution")
	}
}

// awaitExplored blocks until job id's event stream reports a snapshot
// with at least one explored state, so a search is known to be under way.
// It fails the test if the stream ends first or timeout passes.
func awaitExplored(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s/events: %v", id, err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "snapshot":
			var snap SnapshotJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("bad snapshot frame: %v", err)
			}
			if snap.StatesExplored > 0 {
				return
			}
		case event == "done":
			t.Fatalf("job %s settled before its search explored a state", id)
		}
	}
	t.Fatalf("job %s: no snapshot with explored states within %v (%v)", id, timeout, scanner.Err())
}

// TestCancelPromptly is the acceptance criterion: a canceled job returns
// AbortCanceled promptly (well before its 30s backstop timeout).
func TestCancelPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SnapshotEvery: 10 * time.Millisecond})
	code, jj := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	// Cancel only once the search has explored a state: a DELETE that
	// lands earlier leaves no partial statistics to assert on below.
	awaitExplored(t, ts, jj.ID, 10*time.Second)
	start := time.Now()
	code, canceled := cancelJob(t, ts, jj.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", code)
	}
	if canceled.State != JobCanceled {
		t.Fatalf("state after DELETE = %q, want canceled", canceled.State)
	}
	var final JobJSON
	pollUntil(t, 10*time.Second, "canceled job to flush its final report", func() bool {
		final = getJob(t, ts, jj.ID)
		return final.Report != nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt", elapsed)
	}
	if final.State != JobCanceled {
		t.Errorf("final state = %q, want canceled", final.State)
	}
	if got := final.Report.Result.Abort; got != string(mc.AbortCanceled) {
		t.Errorf("final report abort = %q, want %q", got, mc.AbortCanceled)
	}
	if final.Report.Stats.StatesExplored == 0 {
		t.Error("canceled report carries no partial statistics")
	}
	// Cancellations are not cached: the same query admits fresh.
	code, again := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	if code != http.StatusAccepted || again.Cache != CacheMiss {
		t.Fatalf("resubmit after cancel: status %d cache %q, want 202 miss", code, again.Cache)
	}
	cancelJob(t, ts, again.ID)
}

// TestCoalescedCancelRefcount: canceling one of two coalesced jobs keeps
// the shared execution alive; canceling the last stops it.
func TestCoalescedCancelRefcount(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := submitBody(fischerSrc(8, 2), `{"search": "bfs"}`)
	_, a := postJob(t, ts, body, false)
	pollUntil(t, 5*time.Second, "first job to start running", func() bool {
		return getJob(t, ts, a.ID).State == JobRunning
	})
	_, b := postJob(t, ts, body, false)
	if b.Cache != CacheCoalesced {
		t.Fatalf("second job cache = %q, want coalesced", b.Cache)
	}

	cancelJob(t, ts, a.ID)
	time.Sleep(100 * time.Millisecond)
	if got := srv.Status().ExecutionsFinished; got != 0 {
		t.Fatalf("execution stopped after canceling one of two interested jobs")
	}
	if st := getJob(t, ts, b.ID).State; st != JobRunning {
		t.Fatalf("surviving job state = %q, want running", st)
	}

	cancelJob(t, ts, b.ID)
	pollUntil(t, 10*time.Second, "both jobs to settle after last cancel", func() bool {
		return getJob(t, ts, a.ID).Report != nil && getJob(t, ts, b.ID).Report != nil
	})
	for _, id := range []string{a.ID, b.ID} {
		jj := getJob(t, ts, id)
		if jj.State != JobCanceled {
			t.Errorf("job %s state = %q, want canceled", id, jj.State)
		}
		if got := jj.Report.Result.Abort; got != string(mc.AbortCanceled) {
			t.Errorf("job %s abort = %q, want canceled", id, got)
		}
	}
	if got := srv.Status().ExecutionsStarted; got != 1 {
		t.Fatalf("executions started = %d, want 1", got)
	}
}

func TestAdmissionControlQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Distinct slow models (distinct k) so nothing coalesces.
	_, a := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	pollUntil(t, 5*time.Second, "first job to occupy the worker", func() bool {
		return getJob(t, ts, a.ID).State == JobRunning && srv.queue.depth() == 0
	})
	code, b := postJob(t, ts, submitBody(fischerSrc(8, 3), `{"search": "dfs"}`), false)
	if code != http.StatusAccepted {
		t.Fatalf("second POST status = %d, want 202 (queued)", code)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(submitBody(fischerSrc(8, 4), `{"search": "dfs"}`)))
	if err != nil {
		t.Fatalf("third POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response has no Retry-After header")
	}
	data, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(data, []byte("queue full")) {
		t.Errorf("429 body %q does not explain the rejection", data)
	}
	// The rejected execution must not linger in the singleflight table.
	if got := srv.cache.inflightCount(); got != 2 {
		t.Errorf("inflight executions = %d, want 2 (rejected one deregistered)", got)
	}
	cancelJob(t, ts, a.ID)
	cancelJob(t, ts, b.ID)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"both model and plant", `{"model": "system x", "plant": {"batches": 2}}`, http.StatusBadRequest},
		{"unparsable model", `{"model": "system broken {"}`, http.StatusBadRequest},
		{"model without query", fmt.Sprintf(`{"model": %q}`, "system t\n\nautomaton A {\n    init loc a\n}\n"), http.StatusBadRequest},
		{"negative workers", submitBody(fischerSrc(4, 2), `{"workers": -1}`), http.StatusBadRequest},
		{"unknown search", submitBody(fischerSrc(4, 2), `{"search": "zigzag"}`), http.StatusBadRequest},
		{"besttime without plant clock", submitBody(fischerSrc(4, 2), `{"search": "besttime"}`), http.StatusBadRequest},
		{"negative timeout", submitBody(fischerSrc(4, 2), `{"timeout_seconds": -1}`), http.StatusBadRequest},
		{"plant zero batches", `{"plant": {"batches": 0}}`, http.StatusBadRequest},
		{"plant bad quality", `{"plant": {"qualities": [9]}}`, http.StatusBadRequest},
		{"plant bad guides", `{"plant": {"batches": 2, "guides": "many"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := postJob(t, ts, tc.body, false)
			if code != tc.want {
				t.Errorf("status = %d, want %d", code, tc.want)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job status = %d, want 404", resp.StatusCode)
	}
	code, _ := cancelJob(t, ts, "j999999")
	if code != http.StatusNotFound {
		t.Errorf("DELETE unknown job status = %d, want 404", code)
	}
}

func TestSSEEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SnapshotEvery: 10 * time.Millisecond})
	body := submitBody(fischerSrc(7, 2), `{"search": "bfs", "timeout_seconds": 0.7}`)
	_, jj := postJob(t, ts, body, false)

	resp, err := http.Get(ts.URL + "/jobs/" + jj.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	var snapshots int
	var doneData string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "snapshot" {
				snapshots++
				var snap SnapshotJSON
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
					t.Fatalf("bad snapshot frame: %v", err)
				}
			}
			if event == "done" {
				doneData = strings.TrimPrefix(line, "data: ")
			}
		}
		if doneData != "" {
			break
		}
	}
	if snapshots < 1 {
		t.Errorf("snapshot events = %d, want >= 1", snapshots)
	}
	if doneData == "" {
		t.Fatal("stream ended without a done event")
	}
	var final JobJSON
	if err := json.Unmarshal([]byte(doneData), &final); err != nil {
		t.Fatalf("bad done frame: %v", err)
	}
	if final.Report == nil || final.Report.Result.Abort != "timeout" {
		t.Fatalf("done event report = %+v, want a timeout report", final.Report)
	}

	// A settled job's stream yields the done event immediately.
	resp2, err := http.Get(ts.URL + "/jobs/" + jj.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data, _ := io.ReadAll(resp2.Body)
	if !bytes.Contains(data, []byte("event: done")) {
		t.Errorf("settled job stream = %q, want immediate done event", data)
	}
}

func TestPlantSynthesisJob(t *testing.T) {
	if testing.Short() {
		t.Skip("plant synthesis pipeline in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	code, jj := postJob(t, ts, `{"plant": {"batches": 2}, "options": {"search": "dfs"}}`, true)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if jj.State != JobDone {
		t.Fatalf("state = %q, want done (error: %s)", jj.State, jj.Error)
	}
	if jj.Report == nil || !jj.Report.Result.Found {
		t.Fatal("plant schedule search did not reach the goal")
	}
	if jj.Schedule == nil || len(jj.Schedule.Commands) == 0 {
		t.Fatal("plant job has no projected schedule")
	}
	if jj.Schedule.Batches != 2 {
		t.Errorf("schedule batches = %d, want 2", jj.Schedule.Batches)
	}
	if jj.Schedule.Horizon == "" {
		t.Error("schedule has no horizon")
	}
	if jj.Program == nil || jj.Program.Instructions == 0 || jj.Program.Text == "" {
		t.Fatal("plant job has no synthesized RCX program")
	}
	// Plant results cache like model results.
	code, hit := postJob(t, ts, `{"plant": {"batches": 2}, "options": {"search": "dfs"}}`, false)
	if code != http.StatusOK || hit.Cache != CacheHit {
		t.Fatalf("second plant POST: status %d cache %q, want 200 hit", code, hit.Cache)
	}
	if hit.Schedule == nil || hit.Program == nil {
		t.Fatal("cached plant outcome lost its synthesis artifacts")
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7})
	postJob(t, ts, submitBody(fischerSrc(4, 2), `{"search": "bfs"}`), true)
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "serving" {
		t.Errorf("state = %q, want serving", st.State)
	}
	if len(st.Workers) != 3 {
		t.Errorf("workers = %d, want 3", len(st.Workers))
	}
	if st.QueueCap != 7 {
		t.Errorf("queue cap = %d, want 7", st.QueueCap)
	}
	if st.ExecutionsFinished != 1 {
		t.Errorf("executions finished = %d, want 1", st.ExecutionsFinished)
	}
	if st.Jobs[JobDone] != 1 {
		t.Errorf("done jobs = %d, want 1", st.Jobs[JobDone])
	}

	healthz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz.Body.Close()
	if healthz.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", healthz.StatusCode)
	}
}
