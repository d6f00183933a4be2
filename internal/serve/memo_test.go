// Resolution-memo tests: a request identified from the memo must get
// exactly the key, model hash, query and BestTime clock that building and
// hashing its model afresh gives; reports must carry the model's true
// hash on every path, including those that build the model late; and the
// memo stays bounded by CacheSize.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/tadsl"
)

// freshIdentity resolves a request the long way, independently of the
// memo and of execution.resolve: build or parse, hash, key.
func freshIdentity(t *testing.T, req *SubmitRequest) (key, sha, query string, timeClock int) {
	t.Helper()
	opts, err := req.Options.resolve(serveDefaults())
	if err != nil {
		t.Fatal(err)
	}
	kind := "model"
	var goal mc.Goal
	if req.Plant != nil {
		kind = "plant"
		cfg, err := req.Plant.resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := plant.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Search == mc.BestTime {
			opts.TimeClock = p.GlobalClock
			opts.TimeHorizon = p.Cfg.Params.Deadline * int32(len(cfg.Qualities)+2)
		}
		goal = p.Goal
		sha, err = tadsl.Hash(p.Sys, &p.Goal)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		m, err := tadsl.Parse(req.Model)
		if err != nil {
			t.Fatal(err)
		}
		goal = m.Query
		if sha, err = tadsl.Hash(m.Sys, &m.Query); err != nil {
			t.Fatal(err)
		}
	}
	return cacheKey(kind, sha, opts), sha, goal.String(), opts.TimeClock
}

// plantSHA is the tadsl.Hash of a freshly built plant.
func plantSHA(t *testing.T, cfg plant.Config) string {
	t.Helper()
	p, err := plant.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sha, err := tadsl.Hash(p.Sys, &p.Goal)
	if err != nil {
		t.Fatal(err)
	}
	return sha
}

// TestMemoMatchesFreshResolution admits every request twice. The first
// admission of a model resolves it and fills the memo; every later one —
// the repeat, or the same model under other options — must be identified
// from the memo alone, with no model on the execution. All must agree
// with a fresh build and hash, across batch counts, guide levels, params
// overlays, BestTime (whose TimeClock comes from the memo) and tadsl
// models.
func TestMemoMatchesFreshResolution(t *testing.T) {
	srv := New(Config{Workers: 1})
	t.Cleanup(func() { srv.Drain(context.Background()) })
	var bodies []string
	for batches := 1; batches <= 4; batches++ {
		for _, guides := range []string{"none", "some", "all"} {
			for _, params := range []string{"", `, "params": {"treat_a": 7, "deadline": 90}`} {
				for _, search := range []string{"dfs", "besttime"} {
					bodies = append(bodies, fmt.Sprintf(`{"plant": {"batches": %d, "guides": %q%s}, "options": {"search": %q}}`,
						batches, guides, params, search))
				}
			}
		}
	}
	bodies = append(bodies,
		`{"plant": {"qualities": [2, 5, 1]}, "options": {"search": "bfs"}}`,
		submitBody(fischerSrc(3, 2), `{"search": "bfs"}`),
		submitBody(fischerSrc(4, 3), `{"search": "dfs"}`))
	seen := make(map[string]bool)
	for _, body := range bodies {
		var req SubmitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		key, sha, query, clock := freshIdentity(t, &req)
		for pass := 0; pass < 2; pass++ {
			ex, err := srv.buildExecution(&req)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			want := "identified from the memo"
			if !seen[sha] {
				want = "resolved at admission"
			}
			if built := ex.sys != nil; built != !seen[sha] {
				t.Errorf("%s: model built = %v, want %s", body, built, want)
			}
			seen[sha] = true
			if ex.key != key || ex.modelSHA != sha || ex.query != query || ex.opts.TimeClock != clock {
				t.Errorf("%s (%s): got key %s sha %s query %q clock %d, want %s %s %q %d",
					body, want, ex.key, ex.modelSHA, ex.query, ex.opts.TimeClock, key, sha, query, clock)
			}
		}
	}
}

// TestMemoBounded: the memo never holds more than CacheSize entries.
func TestMemoBounded(t *testing.T) {
	srv := New(Config{Workers: 1, CacheSize: 2})
	t.Cleanup(func() { srv.Drain(context.Background()) })
	for k := 2; k < 8; k++ {
		req := SubmitRequest{Model: fischerSrc(2, k)}
		if _, err := srv.buildExecution(&req); err != nil {
			t.Fatal(err)
		}
		if n := srv.memo.len(); n > 2 {
			t.Fatalf("memo holds %d entries after %d distinct models, bound is 2", n, k-1)
		}
	}
	if n := srv.memo.len(); n != 2 {
		t.Fatalf("memo holds %d entries, want it full at 2", n)
	}
}

// TestReportSHAOnEveryPath: the run report's model hash is the tadsl.Hash
// of the built plant whether the model was built at admission (a miss),
// at dispatch after a memo hit whose cache entry was evicted, or only for
// the report of a job canceled while queued.
func TestReportSHAOnEveryPath(t *testing.T) {
	if testing.Short() {
		t.Skip("plant synthesis pipeline in -short mode")
	}
	want := plantSHA(t, plant.Config{Qualities: plant.CycleQualities(1), Guides: plant.AllGuides})
	const (
		plainDFS  = `{"plant": {"batches": 1}, "options": {"search": "dfs"}}`
		cappedDFS = `{"plant": {"batches": 1}, "options": {"search": "dfs", "max_states": 1000000}}`
	)
	check := func(path string, jj JobJSON) {
		t.Helper()
		if jj.Report == nil || jj.Report.Model == nil {
			t.Fatalf("%s: report has no model block (state %q, %s)", path, jj.State, jj.Error)
		}
		if jj.Report.Model.SHA256 != want || jj.ModelSHA256 != want {
			t.Errorf("%s: report sha %s, job sha %s, want %s", path, jj.Report.Model.SHA256, jj.ModelSHA256, want)
		}
		if jj.Report.Model.Automata == 0 {
			t.Errorf("%s: report model block has no statistics", path)
		}
	}

	t.Run("miss and evicted memo hit", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1})
		_, miss := postJob(t, ts, plainDFS, true)
		if miss.Cache != CacheMiss || miss.State != JobDone {
			t.Fatalf("first POST: cache %q state %q (%s)", miss.Cache, miss.State, miss.Error)
		}
		check("miss", miss)
		// Same model, other options: a memo hit that evicts the first
		// result from the one-entry cache.
		postJob(t, ts, cappedDFS, true)
		_, again := postJob(t, ts, plainDFS, true)
		if again.Cache != CacheMiss || again.State != JobDone {
			t.Fatalf("repeat after eviction: cache %q state %q (%s)", again.Cache, again.State, again.Error)
		}
		check("memo hit after eviction", again)
		if again.Key != miss.Key {
			t.Errorf("memo-derived key %s differs from the miss's %s", again.Key, miss.Key)
		}
		if n := srv.memo.len(); n != 1 {
			t.Errorf("memo holds %d entries, want 1", n)
		}
	})

	t.Run("canceled while queued", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		_, blocker := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
		pollUntil(t, 5*time.Second, "blocker to occupy the worker", func() bool {
			return getJob(t, ts, blocker.ID).State == JobRunning
		})
		// The first admission builds the plant, the second is identified
		// from the memo and leaves the build to the worker.
		_, built := postJob(t, ts, plainDFS, false)
		_, memoized := postJob(t, ts, cappedDFS, false)
		for _, jj := range []JobJSON{built, memoized} {
			if code, _ := cancelJob(t, ts, jj.ID); code != http.StatusOK {
				t.Fatalf("DELETE %s: status %d", jj.ID, code)
			}
		}
		cancelJob(t, ts, blocker.ID)
		for i, jj := range []JobJSON{built, memoized} {
			id := jj.ID
			var final JobJSON
			pollUntil(t, 10*time.Second, "canceled job's final report", func() bool {
				final = getJob(t, ts, id)
				return final.Report != nil
			})
			if final.Report.Result.Abort != string(mc.AbortCanceled) {
				t.Errorf("job %d: abort %q, want canceled", i, final.Report.Result.Abort)
			}
			check(fmt.Sprintf("canceled while queued (job %d)", i), final)
		}
	})
}

// TestPlantBestTimeJob: a plant job may ask for minimum-time search; the
// server wires in the plant's global clock and horizon before validating
// the options, so the job is admitted and finds a schedule.
func TestPlantBestTimeJob(t *testing.T) {
	if testing.Short() {
		t.Skip("plant synthesis pipeline in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	code, jj := postJob(t, ts, `{"plant": {"batches": 1}, "options": {"search": "besttime"}}`, true)
	if code != http.StatusOK || jj.State != JobDone || !jj.Report.Result.Found {
		t.Fatalf("BestTime plant job: status %d state %q (%s)", code, jj.State, jj.Error)
	}
}
