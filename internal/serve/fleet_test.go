// Fleet-serving tests: weighted-fair tenant scheduling, per-tenant
// admission quotas, the canceled-while-queued worker skip, warm-started
// re-synthesis over the checkpoint index, checkpoint garbage collection,
// and a -race stress of the coalescing lifecycle on a single cache key.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/snapshot"
)

// qex builds the minimal execution the queue cares about.
func qex(tenant string, resynth bool) *execution {
	ctx, cancel := context.WithCancel(context.Background())
	return &execution{tenant: tenant, resynth: resynth, ctx: ctx, cancel: cancel, done: make(chan struct{})}
}

// TestQueueWeightedFairOrder: with weights a=2, b=1 and both tenants
// backlogged, the credit round-robin hands out slots in a fixed 2:1
// pattern — the flooding tenant cannot push the other's work back by more
// than one scheduling round.
func TestQueueWeightedFairOrder(t *testing.T) {
	q := newQueue(16, map[string]int{"a": 2, "b": 1})
	for i := 0; i < 6; i++ {
		if !q.tryPush(qex("a", false)) {
			t.Fatal("push a rejected under quota")
		}
	}
	for i := 0; i < 3; i++ {
		if !q.tryPush(qex("b", false)) {
			t.Fatal("push b rejected under quota")
		}
	}
	want := []string{"a", "b", "a", "b", "a", "a", "b", "a", "a"}
	for i, w := range want {
		ex, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed", i)
		}
		q.wg.Done()
		if ex.tenant != w {
			t.Fatalf("pop %d served tenant %q, want %q (schedule so far breaks 2:1 fairness)", i, ex.tenant, w)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d after draining, want 0", q.depth())
	}
}

// TestQueueFloodedTenantBounded is the acceptance scenario: two tenants
// of equal weight, one flooding twenty jobs before the other submits two —
// the quiet tenant's jobs must still be served within one alternation
// each (positions 1 and 3), not behind the flood.
func TestQueueFloodedTenantBounded(t *testing.T) {
	q := newQueue(64, nil)
	for i := 0; i < 20; i++ {
		q.tryPush(qex("flood", false))
	}
	q.tryPush(qex("quiet", false))
	q.tryPush(qex("quiet", false))
	var served []string
	for i := 0; i < 4; i++ {
		ex, _ := q.pop()
		q.wg.Done()
		served = append(served, ex.tenant)
	}
	if served[1] != "quiet" || served[3] != "quiet" {
		t.Fatalf("first four slots went to %v; the quiet tenant waited behind the flood", served)
	}
}

// TestQueueResynthBandFirst: within one tenant, re-synthesis executions
// are served before normal backlog regardless of arrival order.
func TestQueueResynthBandFirst(t *testing.T) {
	q := newQueue(16, nil)
	normal := qex("plant", false)
	q.tryPush(normal)
	resynth := qex("plant", true)
	q.tryPush(resynth)
	ex, _ := q.pop()
	q.wg.Done()
	if ex != resynth {
		t.Fatal("normal job served before the resynth band")
	}
	ex, _ = q.pop()
	q.wg.Done()
	if ex != normal {
		t.Fatal("normal job lost")
	}
}

// TestQueuePerTenantQuota: one tenant filling its quota must not consume
// another tenant's headroom.
func TestQueuePerTenantQuota(t *testing.T) {
	q := newQueue(2, nil)
	if !q.tryPush(qex("a", false)) || !q.tryPush(qex("a", false)) {
		t.Fatal("pushes under quota rejected")
	}
	if q.tryPush(qex("a", false)) {
		t.Fatal("push over tenant quota admitted")
	}
	if !q.tryPush(qex("b", false)) {
		t.Fatal("tenant b rejected because tenant a is full")
	}
	st := q.tenantStatus()
	if len(st) != 2 || st[0].Tenant != "a" || st[0].Queued != 2 || st[1].Tenant != "b" || st[1].Queued != 1 {
		t.Fatalf("tenantStatus = %+v", st)
	}
}

// postJobTenant is postJob with an X-Tenant header.
func postJobTenant(t *testing.T, ts *httptest.Server, tenant, body string, wait bool) (int, JobJSON, string) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var jj JobJSON
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(data, &jj); err != nil {
			t.Fatalf("POST /v1/jobs: bad response %q: %v", data, err)
		}
	}
	return resp.StatusCode, jj, string(data)
}

// TestTenantQuota429 drives the per-tenant quota through HTTP: a tenant
// at quota gets 429 naming the tenant; other tenants still admit.
func TestTenantQuota429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the worker so later submissions stay queued.
	_, running := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	pollUntil(t, 5*time.Second, "first job to occupy the worker", func() bool {
		return getJob(t, ts, running.ID).State == JobRunning && srv.queue.depth() == 0
	})

	code, a1, _ := postJobTenant(t, ts, "acme", submitBody(fischerSrc(8, 3), `{"search": "dfs"}`), false)
	if code != http.StatusAccepted {
		t.Fatalf("first acme POST status = %d, want 202", code)
	}
	code, _, body := postJobTenant(t, ts, "acme", submitBody(fischerSrc(8, 4), `{"search": "dfs"}`), false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("acme over quota status = %d, want 429", code)
	}
	if !strings.Contains(body, "acme") {
		t.Errorf("429 body %q does not name the throttled tenant", body)
	}
	code, b1, _ := postJobTenant(t, ts, "beta", submitBody(fischerSrc(8, 5), `{"search": "dfs"}`), false)
	if code != http.StatusAccepted {
		t.Fatalf("beta POST status = %d, want 202 (quota is per tenant)", code)
	}
	st := srv.Status()
	if st.QueueCap != 1 {
		t.Errorf("queue cap = %d, want the per-tenant quota 1", st.QueueCap)
	}
	var acme *TenantStatus
	for i := range st.Tenants {
		if st.Tenants[i].Tenant == "acme" {
			acme = &st.Tenants[i]
		}
	}
	if acme == nil || acme.Queued != 1 || acme.Quota != 1 {
		t.Errorf("acme tenant status = %+v, want 1 queued of quota 1", acme)
	}
	for _, id := range []string{running.ID, a1.ID, b1.ID} {
		cancelJob(t, ts, id)
	}
}

// TestCanceledWhileQueuedSkipped: canceling a job that never left the
// queue must not burn a worker slot on a dead search — the worker skips
// the settled-by-cancel execution, publishes a final canceled report so
// waiters unblock, and counts the skip.
func TestCanceledWhileQueuedSkipped(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	_, a := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	pollUntil(t, 5*time.Second, "first job to occupy the worker", func() bool {
		return getJob(t, ts, a.ID).State == JobRunning
	})
	_, b := postJob(t, ts, submitBody(fischerSrc(8, 3), `{"search": "dfs"}`), false)
	if st := getJob(t, ts, b.ID).State; st != JobQueued {
		t.Fatalf("second job state = %q, want queued behind the busy worker", st)
	}
	code, _ := cancelJob(t, ts, b.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE status = %d", code)
	}
	// Free the worker; it must pop b's execution and skip it.
	cancelJob(t, ts, a.ID)
	var final JobJSON
	pollUntil(t, 10*time.Second, "queued-then-canceled job to settle with a report", func() bool {
		final = getJob(t, ts, b.ID)
		return final.Report != nil
	})
	if final.State != JobCanceled {
		t.Errorf("state = %q, want canceled", final.State)
	}
	if got := final.Report.Result.Abort; got != string(mc.AbortCanceled) {
		t.Errorf("report abort = %q, want %q", got, mc.AbortCanceled)
	}
	pollUntil(t, 5*time.Second, "skip counter", func() bool {
		return srv.Status().ExecutionsSkipped == 1
	})
	if got := srv.Status().ExecutionsStarted; got != 1 {
		t.Errorf("executions started = %d, want 1 (the skipped one never ran)", got)
	}
}

// TestCoalesceCancelStress interleaves submit, coalesce, cancel, and
// status reads on a single cache key under -race: no execution may be
// lost, double-canceled, or left settling forever, and after the dust
// settles every job holds a final report.
func TestCoalesceCancelStress(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	body := submitBody(fischerSrc(8, 2), `{"search": "dfs"}`)
	const (
		goroutines = 8
		iterations = 5
	)
	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				code, jj := postJob(t, ts, body, false)
				if code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("POST status = %d", code)
					return
				}
				mu.Lock()
				ids = append(ids, jj.ID)
				mu.Unlock()
				switch (g + i) % 3 {
				case 0:
					// Cancel immediately: may race the worker pickup.
					cancelJob(t, ts, jj.ID)
				case 1:
					getJob(t, ts, jj.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Withdraw all remaining interest; every execution must settle.
	mu.Lock()
	all := append([]string(nil), ids...)
	mu.Unlock()
	for _, id := range all {
		cancelJob(t, ts, id)
	}
	pollUntil(t, 15*time.Second, "all executions to settle", func() bool {
		return srv.cache.inflightCount() == 0
	})
	for _, id := range all {
		id := id
		pollUntil(t, 10*time.Second, fmt.Sprintf("job %s final report", id), func() bool {
			return getJob(t, ts, id).Report != nil
		})
	}
	st := srv.Status()
	if st.ExecutionsStarted+st.ExecutionsSkipped == 0 {
		t.Error("stress run never started an execution")
	}
}

// TestWarmStartServe: with -warm-start semantics on, a re-synthesis of the
// same plant under drifted timing constants must be seeded from the
// earlier run's kept-final checkpoint and say so in the job record. A
// small fleet then streams drift rounds from two tenants, the server is
// drained and restarted on the same checkpoint directory, and the
// restarted server must warm-start from the index it rebuilds from the
// files on disk.
func TestWarmStartServe(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CheckpointDir: dir, WarmStart: true}
	srv, ts := newTestServer(t, cfg)
	const base = `{"plant": {"batches": 2}, "options": {"search": "dfs"}}`
	code, first := postJob(t, ts, base, true)
	if code != http.StatusOK || first.State != JobDone {
		t.Fatalf("base synthesis: status %d state %q (%s)", code, first.State, first.Error)
	}
	if first.WarmStartedFrom != "" {
		t.Fatalf("first run claims a warm start from %q", first.WarmStartedFrom)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("kept-final checkpoints after base run = %d, want 1", len(files))
	}

	// Worn plant: same structure, drifted constants — a different model
	// SHA, so no cache hit, but the same warm family.
	worn := `{"plant": {"batches": 2, "params": {"deadline": 80}}, "options": {"search": "dfs"}, "resynthesis": true}`
	code, second := postJob(t, ts, worn, true)
	if code != http.StatusOK || second.State != JobDone {
		t.Fatalf("re-synthesis: status %d state %q (%s)", code, second.State, second.Error)
	}
	if second.Cache != CacheMiss || second.ModelSHA256 == first.ModelSHA256 {
		t.Fatalf("drifted params did not produce a distinct model (cache %q)", second.Cache)
	}
	if second.WarmStartedFrom != first.Key {
		t.Fatalf("warm_started_from = %q, want the base run's key %q", second.WarmStartedFrom, first.Key)
	}
	if second.Schedule == nil || len(second.Schedule.Commands) == 0 {
		t.Fatal("warm-started re-synthesis produced no schedule")
	}
	if got := srv.Status().WarmStarts; got != 1 {
		t.Errorf("warm starts = %d, want 1", got)
	}

	// An invalid params overlay must be rejected at admission.
	code, _ = postJob(t, ts, `{"plant": {"batches": 2, "params": {"deadline": 0}}}`, false)
	if code != http.StatusBadRequest {
		t.Errorf("zero deadline status = %d, want 400", code)
	}

	// fleet posts rounds 0-2 of each plant: plant i's deadline is 91+i,
	// round 1 wears every movement one unit slower, round 2 also takes
	// ten units off the deadline. It returns the warm-started jobs in
	// submission order.
	fleet := func(ts *httptest.Server, plants ...int) (warm []string) {
		for _, i := range plants {
			for r := 0; r <= 2; r++ {
				wear, deadline := 0, 91+i
				if r >= 1 {
					wear = 1
				}
				if r == 2 {
					deadline -= 10
				}
				body := fmt.Sprintf(`{"plant": {"batches": 2, "params": {"b_move": %d, "c_move": %d, "c_up": %d, "c_down": %d, "deadline": %d}},
					"options": {"search": "dfs"}, "resynthesis": true}`, 2+wear, 1+wear, 1+wear, 1+wear, deadline)
				code, jj, _ := postJobTenant(t, ts, []string{"acme", "beta"}[i%2], body, true)
				if code != http.StatusOK || jj.State != JobDone || jj.Schedule == nil {
					t.Fatalf("plant %d round %d: status %d state %q (%s)", i, r, code, jj.State, jj.Error)
				}
				if jj.WarmStartedFrom != "" {
					warm = append(warm, fmt.Sprintf("plant %d round %d", i, r))
				}
			}
		}
		return warm
	}
	if warm := fleet(ts, 0, 1, 2); len(warm) == 0 {
		t.Fatal("no fleet job warm-started")
	}
	if n := srv.Status().Jobs[JobFailed]; n != 0 {
		t.Fatalf("%d job(s) failed", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Drain(ctx)
	_, ts = newTestServer(t, cfg)
	// New plants, so no exact key has a snapshot on disk: every warm
	// start must come from the index rebuilt at startup.
	warm := fleet(ts, 3, 4, 5)
	if len(warm) == 0 || warm[0] != "plant 3 round 0" {
		t.Fatalf("after restart the warm-started jobs were %v; the first must be plant 3 round 0", warm)
	}
	// The base request again: the restart emptied the result cache, so it
	// runs, seeded from its own kept path, whose witness replays.
	code, again := postJob(t, ts, base, true)
	if code != http.StatusOK || again.State != JobDone {
		t.Fatalf("base resubmission after restart: status %d state %q (%s)", code, again.State, again.Error)
	}
	if again.WarmStartedFrom != first.Key || again.Report.Stats.StatesExplored != 0 {
		t.Fatalf("base resubmission: warm_started_from %q, explored %d; want its own key %q and 0",
			again.WarmStartedFrom, again.Report.Stats.StatesExplored, first.Key)
	}
	if !reflect.DeepEqual(again.Schedule, first.Schedule) {
		t.Fatal("base resubmission's schedule differs from the first run's")
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WarmStarts == 0 || st.Jobs[JobFailed] != 0 {
		t.Fatalf("after restart /v1/status: warm_starts %d, failed jobs %d", st.WarmStarts, st.Jobs[JobFailed])
	}
}

// keptTrace reads a plant job's kept-final snapshot back and returns its
// witness, failing the test unless the file is exactly that path: one
// stored state, a goal state, and its ancestor chain, trace length plus
// one nodes.
func keptTrace(t *testing.T, path string, goal mc.Goal) []mc.Transition {
	t.Helper()
	cp, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Store) != 1 {
		t.Fatalf("%s holds %d states, want 1 (its witness path's goal)", filepath.Base(path), len(cp.Store))
	}
	hit := cp.Store[0]
	if sn := &cp.Nodes[hit]; !goal.Satisfied(sn.Locs, sn.Env) {
		t.Fatalf("%s holds no goal state", filepath.Base(path))
	}
	trace := make([]mc.Transition, cp.Nodes[hit].Depth)
	for ix := hit; cp.Nodes[ix].Parent >= 0; ix = cp.Nodes[ix].Parent {
		v := cp.Nodes[ix].Via
		trace[cp.Nodes[ix].Depth-1] = mc.Transition{Chan: int(v[0]), A1: int(v[1]), E1: int(v[2]), A2: int(v[3]), E2: int(v[4])}
	}
	if len(cp.Nodes) != len(trace)+1 {
		t.Fatalf("%s holds %d nodes, want %d (its witness path)", filepath.Base(path), len(cp.Nodes), len(trace)+1)
	}
	return trace
}

// TestWarmDriftChainKeepsPaths streams a chain of drifts of the 3-batch
// plant into one warm-start server, each job seeded from the newest kept
// snapshot, its predecessor's. Treatment drifts and deadline shifts
// alternate, so some jobs replay their seed's witness (explored 0) and
// some search: a tighter deadline's seed witness misses it, and so does
// the deadline-56 witness the (4,4) treatment drift is seeded from.
// Every job, searched or replayed, must keep a snapshot of
// exactly its witness path, so the chain's files do not grow. Each job's
// witness, read back from its snapshot, must have the reported length
// and replay on the unguided plant.
func TestWarmDriftChainKeepsPaths(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, WarmStart: true})
	treat := func(a, b int32) *ParamsRequest { return &ParamsRequest{TreatA: &a, TreatB: &b} }
	deadline := func(d int32) *ParamsRequest { return &ParamsRequest{Deadline: &d} }
	steps := []struct {
		params *ParamsRequest
		warm   bool // answered by its seed's replayed witness
	}{
		{treat(4, 6), false}, {treat(5, 7), true}, {deadline(56), false}, {treat(4, 4), false},
		{treat(6, 8), true}, {deadline(62), false}, {treat(3, 5), true}, {deadline(58), false},
		{treat(8, 10), true}, {treat(5, 4), true},
	}
	for i, step := range steps {
		pr := &PlantRequest{Batches: 3, Params: step.params}
		body, err := json.Marshal(SubmitRequest{Plant: pr, Resynthesis: true})
		if err != nil {
			t.Fatal(err)
		}
		code, jj := postJob(t, ts, string(body), true)
		if code != http.StatusOK || jj.State != JobDone || jj.Schedule == nil || jj.Report == nil {
			t.Fatalf("step %d %s: status %d state %q (%s)", i, body, code, jj.State, jj.Error)
		}
		st := jj.Report.Stats
		if warm := jj.WarmStartedFrom != ""; warm != step.warm || warm != (st.StatesExplored == 0) {
			t.Errorf("step %d %s: warm-started from %q, replays %d, explored %d; want warm %v",
				i, body, jj.WarmStartedFrom, st.WarmReplays, st.StatesExplored, step.warm)
		}
		trace := checkKeptUnguided(t, pr, filepath.Join(dir, jj.Key+".ckpt"))
		if len(trace) != jj.Report.Result.TraceLen {
			t.Fatalf("step %d %s: kept witness has %d steps, the job reported %d", i, body, len(trace), jj.Report.Result.TraceLen)
		}
	}
}

// checkKeptUnguided reads the witness a plant job kept in its final
// snapshot (see keptTrace) and fails the test unless it replays, mapped
// onto the unguided plant, under mc.CheckTrace.
func checkKeptUnguided(t *testing.T, pr *PlantRequest, ckpt string) []mc.Transition {
	t.Helper()
	cfg, err := pr.resolve()
	if err != nil {
		t.Fatal(err)
	}
	guided, err := plant.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := keptTrace(t, ckpt, guided.Goal)
	cfg.Guides = plant.NoGuides
	unguided, err := plant.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := plant.MapTrace(guided.Sys, unguided.Sys, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.CheckTrace(unguided.Sys, unguided.Goal, mapped); err != nil {
		t.Fatalf("%s: schedule fails the unguided replay: %v", filepath.Base(ckpt), err)
	}
	return trace
}

// TestWarmNoReplayRunsCold: on one warm-start server, a treatment drift
// whose seed, a deadline-shifted run's snapshot, holds no witness that
// replays on the drifted plant searches cold in the same run: it reports
// no warm start, explores exactly what the same request explores on a
// fresh server, and its schedule passes the unguided replay. A model job
// that ends negative after a warm attempt (correct Fischer seeded from a
// broken variant) keeps no snapshot, since it holds no goal to replay.
func TestWarmNoReplayRunsCold(t *testing.T) {
	post := func(ts *httptest.Server, pr *PlantRequest) JobJSON {
		t.Helper()
		body, err := json.Marshal(SubmitRequest{Plant: pr, Resynthesis: true})
		if err != nil {
			t.Fatal(err)
		}
		code, jj := postJob(t, ts, string(body), true)
		if code != http.StatusOK || jj.State != JobDone || jj.Schedule == nil || jj.Report == nil {
			t.Fatalf("plant %+v: status %d state %q (%s)", *pr.Params, code, jj.State, jj.Error)
		}
		return jj
	}
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, WarmStart: true})
	deadline, treatA, treatB := int32(56), int32(4), int32(4)
	shift := &PlantRequest{Batches: 3, Params: &ParamsRequest{Deadline: &deadline}}
	drift := &PlantRequest{Batches: 3, Params: &ParamsRequest{TreatA: &treatA, TreatB: &treatB}}
	post(ts, shift)
	jj := post(ts, drift)
	if jj.WarmStartedFrom != "" {
		t.Errorf("drift searched cold but reports warm_started_from %q", jj.WarmStartedFrom)
	}
	if jj.Report.Stats.WarmReplays == 0 {
		t.Error("drift replayed no seed candidate; the warm attempt never ran")
	}
	_, fresh := newTestServer(t, Config{Workers: 1, CheckpointDir: t.TempDir(), WarmStart: true})
	cold := post(fresh, drift)
	if got, want := jj.Report.Stats.StatesExplored, cold.Report.Stats.StatesExplored; got != want {
		t.Errorf("drift explored %d states after a failed warm attempt, %d cold", got, want)
	}
	checkKeptUnguided(t, drift, filepath.Join(dir, jj.Key+".ckpt"))

	correct := fischerSrc(2, 2)
	broken := strings.ReplaceAll(correct, "> 2 &&", "> 1 &&")
	for _, src := range []string{broken, correct} {
		code, mj := postJob(t, ts, submitBody(src, `{"search": "dfs"}`), true)
		if code != http.StatusOK || mj.State != JobDone || mj.Report.Result.Found != (src == broken) {
			t.Fatalf("fischer (broken %v): status %d state %q found %v (%s)", src == broken, code, mj.State, mj.Report.Result.Found, mj.Error)
		}
		if src == correct && (mj.Report.Stats.WarmReplays == 0 || mj.WarmStartedFrom != "") {
			t.Errorf("correct fischer: replays %d, warm_started_from %q; want a failed warm attempt", mj.Report.Stats.WarmReplays, mj.WarmStartedFrom)
		}
		_, err := os.Stat(filepath.Join(dir, mj.Key+".ckpt"))
		if kept := err == nil; kept != (src == broken) {
			t.Errorf("fischer (broken %v): snapshot kept = %v, want %v", src == broken, kept, src == broken)
		}
	}
}

// TestWarmStartShapeMismatchReportsCold: a seed from the same warm family
// but a different model shape (two batches seeding three) has no goal
// state of this shape to replay, so the search runs cold and must not be
// reported as warm-started.
func TestWarmStartShapeMismatchReportsCold(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: t.TempDir(), WarmStart: true})
	for _, batches := range []int{2, 3} {
		body := fmt.Sprintf(`{"plant": {"batches": %d}, "options": {"search": "dfs"}}`, batches)
		code, jj := postJob(t, ts, body, true)
		if code != http.StatusOK || jj.State != JobDone {
			t.Fatalf("%d batches: status %d state %q (%s)", batches, code, jj.State, jj.Error)
		}
		if jj.WarmStartedFrom != "" {
			t.Errorf("%d batches: warm_started_from = %q, want a cold run", batches, jj.WarmStartedFrom)
		}
	}
	if got := srv.Status().WarmStarts; got != 0 {
		t.Errorf("warm starts = %d, want 0", got)
	}
}

// TestCheckpointGC: stale checkpoint files are collected at startup by
// age and count, newest-first, while files belonging to in-flight
// executions survive regardless of age.
func TestCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, age time.Duration) string {
		p := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-age)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stale := mk("stale", 48*time.Hour)
	fresh := mk("fresh", time.Hour)
	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, CheckpointGCAge: 24 * time.Hour})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint survived startup GC: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh checkpoint collected: %v", err)
	}

	// An ancient file named for an in-flight key must survive a GC pass.
	_, running := postJob(t, ts, submitBody(fischerSrc(8, 2), `{"search": "dfs"}`), false)
	pollUntil(t, 5*time.Second, "job to start", func() bool {
		return getJob(t, ts, running.ID).State == JobRunning
	})
	inflight := mk(running.Key, 72*time.Hour)
	srv.gcCheckpoints()
	if _, err := os.Stat(inflight); err != nil {
		t.Fatalf("in-flight key's checkpoint collected: %v", err)
	}
	cancelJob(t, ts, running.ID)
}

// TestCheckpointGCPeriodic: the background sweep collects files that go
// stale while the server is up — a long-lived deployment must not need a
// drain or restart for age-based GC to happen.
func TestCheckpointGCPeriodic(t *testing.T) {
	dir := t.TempDir()
	newTestServer(t, Config{Workers: 1, CheckpointDir: dir,
		CheckpointGCAge: time.Hour, CheckpointGCEvery: 10 * time.Millisecond})
	p := filepath.Join(dir, "stale.ckpt")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(p, old, old); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "background GC to collect the stale checkpoint", func() bool {
		_, err := os.Stat(p)
		return os.IsNotExist(err)
	})
}

// TestCheckpointGCCount: the count bound keeps only the newest files.
func TestCheckpointGCCount(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		p := filepath.Join(dir, fmt.Sprintf("k%d.ckpt", i))
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-time.Duration(5-i) * time.Minute)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	newTestServer(t, Config{Workers: 1, CheckpointDir: dir, CheckpointGCMax: 2})
	left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(left) != 2 {
		t.Fatalf("files after count GC = %d, want 2", len(left))
	}
	for _, want := range []string{"k3.ckpt", "k4.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("newest file %s collected: %v", want, err)
		}
	}
}

// TestWarmColdRetryIgnoresOwnFinalSnapshot: a correct Fischer model
// warm-started from a broken same-shape variant (same search order, so
// the same warm family) replays none of the variant's witnesses and
// searches cold in the same run. It keeps no final snapshot (a negative
// has no goal to replay), so nothing is left at its checkpoint path for
// a later run to trip over; the job settles done with "not found" and its
// repeat is served from the cache.
func TestWarmColdRetryIgnoresOwnFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, WarmStart: true})
	// Two processes under DFS: the broken variant's kept snapshot holds
	// no goal state whose path the correct model can replay.
	correct := fischerSrc(2, 2)
	broken := strings.ReplaceAll(correct, "> 2 &&", "> 1 &&")
	code, seed := postJob(t, ts, submitBody(broken, `{"search": "dfs"}`), true)
	if code != http.StatusOK || seed.State != JobDone || !seed.Report.Result.Found {
		t.Fatalf("broken variant: status %d state %q (%s), want a found violation", code, seed.State, seed.Error)
	}
	code, jj := postJob(t, ts, submitBody(correct, `{"search": "dfs"}`), true)
	if code != http.StatusOK || jj.State != JobDone {
		t.Fatalf("correct model after warm fallback: status %d state %q (%s), want done", code, jj.State, jj.Error)
	}
	if jj.Report.Result.Found {
		t.Fatal("correct Fischer reported a mutual-exclusion violation")
	}
	if jj.WarmStartedFrom != "" {
		t.Errorf("cold rerun still claims a warm start from %q", jj.WarmStartedFrom)
	}
	code, again := postJob(t, ts, submitBody(correct, `{"search": "dfs"}`), false)
	if code != http.StatusOK || again.Cache != CacheHit || again.Report.Result.Found {
		t.Fatalf("repeat: status %d cache %q, want 200 hit with not-found", code, again.Cache)
	}
}
