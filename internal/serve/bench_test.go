package serve

import (
	"context"
	"encoding/json"
	"testing"
)

// benchSubmit admits decoded copies of bodies round-robin through submit
// and waits for each job to settle.
func benchSubmit(b *testing.B, srv *Server, bodies ...string) {
	b.Helper()
	reqs := make([]SubmitRequest, len(bodies))
	for i, body := range bodies {
		if err := json.Unmarshal([]byte(body), &reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := srv.submit(&reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		job.wait(context.Background())
		if st, _ := job.snapshot(); st != JobDone {
			b.Fatalf("job settled %q", st)
		}
	}
}

// BenchmarkSubmitPlantMiss is one 3-batch plant re-synthesis that misses
// the memo and the cache: admission resolves the model and the worker
// runs the pipeline. Two drifts alternate on a one-entry cache and memo,
// so every submission misses both.
func BenchmarkSubmitPlantMiss(b *testing.B) {
	srv := New(Config{Workers: 1, CacheSize: 1})
	defer srv.Drain(context.Background())
	benchSubmit(b, srv,
		`{"plant": {"batches": 3, "params": {"treat_a": 5}}, "options": {"search": "dfs"}}`,
		`{"plant": {"batches": 3, "params": {"treat_a": 6}}, "options": {"search": "dfs"}}`)
}

// BenchmarkSubmitPlantHit is a repeated 3-batch plant request served from
// the result cache.
func BenchmarkSubmitPlantHit(b *testing.B) {
	srv := New(Config{Workers: 1})
	defer srv.Drain(context.Background())
	body := `{"plant": {"batches": 3, "params": {"treat_a": 5}}, "options": {"search": "dfs"}}`
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		b.Fatal(err)
	}
	job, err := srv.submit(&req)
	if err != nil {
		b.Fatal(err)
	}
	job.wait(context.Background())
	benchSubmit(b, srv, body)
}
