// Graceful-drain tests: the SIGTERM path of cmd/mcserved is
// Server.Drain, so these exercise the acceptance criterion directly —
// admission closes, in-flight jobs finish or are canceled at the drain
// deadline, and every job still flushes a valid final report.
package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"guidedta/internal/mc"
)

// TestDrainCancelsInFlight: a drain whose deadline passes while slow jobs
// run cancels them, waits for their reports, and refuses new work.
func TestDrainCancelsInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	// Two distinct effectively-unbounded searches occupying both workers.
	_, a := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	_, b := postJob(t, ts, submitBody(fischerSrc(8, 3), `{"search": "dfs"}`), false)
	pollUntil(t, 5*time.Second, "both jobs to start running", func() bool {
		return getJob(t, ts, a.ID).State == JobRunning && getJob(t, ts, b.ID).State == JobRunning
	})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	srv.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v, want prompt cancellation after the 50ms grace", elapsed)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Drain")
	}

	// Every in-flight job flushed a final report recording the cancellation.
	for _, id := range []string{a.ID, b.ID} {
		jj := getJob(t, ts, id)
		if jj.Report == nil {
			t.Fatalf("job %s drained without a final report", id)
		}
		if got := jj.Report.Result.Abort; got != string(mc.AbortCanceled) {
			t.Errorf("job %s abort = %q, want canceled", id, got)
		}
		if jj.Report.Stats.DurationSeconds <= 0 {
			t.Errorf("job %s report has no duration", id)
		}
	}
	if got := srv.Status().ExecutionsFinished; got != 2 {
		t.Errorf("executions finished = %d, want 2", got)
	}
	if st := srv.Status().State; st != "draining" {
		t.Errorf("status state = %q, want draining", st)
	}

	// Admission is closed: new POSTs are rejected with 503 ...
	code, _ := postJob(t, ts, submitBody(fischerSrc(4, 2), `{"search": "bfs"}`), false)
	if code != http.StatusServiceUnavailable {
		t.Errorf("POST during drain status = %d, want 503", code)
	}
	// ... and the health check reports it for load balancers.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain status = %d, want 503", resp.StatusCode)
	}

	// Records stay readable after the drain so clients can collect results.
	if jj := getJob(t, ts, a.ID); jj.Report == nil {
		t.Error("job record unreadable after drain")
	}
}

// TestDrainWaitsForFinishingJobs: a drain with headroom lets queued and
// running jobs complete normally instead of canceling them.
func TestDrainWaitsForFinishingJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// A quick exhaustive job plus a queued one behind it: both must finish
	// cleanly under a generous drain deadline.
	_, a := postJob(t, ts, submitBody(fischerSrc(4, 2), `{"search": "bfs"}`), false)
	_, b := postJob(t, ts, submitBody(fischerSrc(4, 3), `{"search": "bfs"}`), false)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain(ctx)

	for _, id := range []string{a.ID, b.ID} {
		jj := getJob(t, ts, id)
		if jj.State != JobDone {
			t.Errorf("job %s state = %q, want done (drain must not cancel finishing work)", id, jj.State)
		}
		if jj.Report == nil || jj.Report.Result.Abort != "" {
			t.Errorf("job %s drained without a clean exhaustive report", id)
		}
	}
	if got := srv.Status().ExecutionsFinished; got != 2 {
		t.Errorf("executions finished = %d, want 2", got)
	}
}

// TestDrainIdempotent: calling Drain twice (signal races, deferred cleanup)
// is safe and the second call returns immediately.
func TestDrainIdempotent(t *testing.T) {
	srv := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Drain(ctx)
	done := make(chan struct{})
	go func() {
		srv.Drain(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second Drain did not return")
	}
	if _, err := srv.submit(&SubmitRequest{Model: fischerSrc(4, 2)}); err == nil {
		t.Fatal("submit after drain succeeded, want errDraining")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit after drain error = %v, want draining rejection", err)
	}
}
