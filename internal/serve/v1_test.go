package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postV1 posts a JSON body to a /v1 path and decodes the job record.
func postV1(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, JobJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var jj JobJSON
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &jj); err != nil {
			t.Fatalf("bad job JSON: %v\n%s", err, data)
		}
	}
	return resp, jj
}

// TestV1RoutesLegacyRemoved: every route is mounted under /v1 without
// deprecation headers, and the pre-/v1 unversioned routes are gone.
func TestV1RoutesLegacyRemoved(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for _, path := range []string{"/v1/healthz", "/v1/status"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("GET %s: carries a Deprecation header", path)
		}
	}
	for _, path := range []string{"/healthz", "/status", "/jobs/j1", "/jobs/j1/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model": %q}`, fischerSrc(2, 2))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /jobs: status %d, want 404", resp.StatusCode)
	}
}

// TestV1JobSchemaPinned pins the /v1 job-record JSON schema: the exact
// top-level keys of a settled model job, and the version-matched Location.
// Growing the schema is fine (add the key here); renaming or removing
// keys is a breaking API change and must ship as /v2.
func TestV1JobSchemaPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model": %q}`, fischerSrc(2, 2))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q, want /v1/jobs/{id}", loc)
	}
	var record map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&record); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"id": true, "state": true, "cache": true, "created": true,
		"query": true, "model_sha256": true, "key": true, "report": true,
		"schedule": true, "program": true, "discover": true, "error": true,
	}
	for key := range record {
		if !allowed[key] {
			t.Errorf("unpinned key %q in /v1 job record", key)
		}
	}
	for _, key := range []string{"id", "state", "cache", "created", "query", "model_sha256", "key", "report"} {
		if _, ok := record[key]; !ok {
			t.Errorf("settled /v1 job record lacks %q", key)
		}
	}
	var state string
	if err := json.Unmarshal(record["state"], &state); err != nil || state != "done" {
		t.Errorf("state = %s, want done", record["state"])
	}
}

// TestV1OptionsOverlay: the /v1 options object overlays server defaults
// through the mc.Options JSON contract — canonical fields and tri-state
// semantics decode, and unknown keys (the removed pre-/v1 aliases among
// them) are rejected.
func TestV1OptionsOverlay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"model": %q, "options": {"search": "bfs", "inclusion": false, "compact": false, "max_states": 50000}}`,
		fischerSrc(2, 2))
	resp, jj := postV1(t, ts, "/v1/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jj.State != JobDone {
		t.Fatalf("state %s, want done", jj.State)
	}
	if jj.Report == nil {
		t.Fatal("no report")
	}

	// Unknown-but-valid JSON with a bad value is a 400, not a server error.
	resp2, _ := postV1(t, ts, "/v1/jobs", fmt.Sprintf(`{"model": %q, "options": {"search": "quantum"}}`, fischerSrc(2, 2)))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad search order: status %d, want 400", resp2.StatusCode)
	}
	resp3, _ := postV1(t, ts, "/v1/jobs", fmt.Sprintf(`{"model": %q, "options": {"timeout_seconds": -3}}`, fischerSrc(2, 2)))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", resp3.StatusCode)
	}
	// A removed alias must not be ignored: inclusion would silently stay on.
	resp4, _ := postV1(t, ts, "/v1/jobs", fmt.Sprintf(`{"model": %q, "options": {"no_inclusion": true}}`, fischerSrc(2, 2)))
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("legacy no_inclusion: status %d, want 400", resp4.StatusCode)
	}
}

// TestV1Discover runs a tiny guide discovery end to end through the
// service: submission, search, replay verification, the settled record's
// discover block, and content-addressed caching of repeat queries.
func TestV1Discover(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"plant": {"batches": 1}, "budget": {"probe_states": 4000, "max_probes": 12}, "seed": 1}`

	resp, jj := postV1(t, ts, "/v1/discover?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jj.State != JobDone {
		t.Fatalf("state %s (error %q), want done", jj.State, jj.Error)
	}
	if jj.Discover == nil {
		t.Fatal("settled discover job has no discover block")
	}
	d := jj.Discover
	if !d.Found {
		t.Fatalf("discovery found no schedule: %+v", d)
	}
	if !d.Replayed {
		t.Error("winning schedule not replay-verified")
	}
	if d.Probes < 2 || len(d.Evaluations) < 2 {
		t.Errorf("suspiciously few probes: %d (%d evaluations)", d.Probes, len(d.Evaluations))
	}
	if d.Guides == "" {
		t.Error("empty winning guide label")
	}

	// The same query is a cache hit; a different seed is not.
	_, again := postV1(t, ts, "/v1/discover?wait=1", body)
	if again.Cache != CacheHit {
		t.Errorf("repeat discover: cache %s, want hit", again.Cache)
	}
	_, reseeded := postV1(t, ts, "/v1/discover?wait=1",
		`{"plant": {"batches": 1}, "budget": {"probe_states": 4000, "max_probes": 12}, "seed": 2}`)
	if reseeded.Cache == CacheHit {
		t.Error("different seed aliased the discover cache key")
	}

	// Plant is required.
	respBad, _ := postV1(t, ts, "/v1/discover", `{"seed": 1}`)
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("discover without plant: status %d, want 400", respBad.StatusCode)
	}
}
