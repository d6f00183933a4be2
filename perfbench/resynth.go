package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/serve"
	"guidedta/internal/snapshot"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// The serve-resynth request stream: streamSegments segments, each served by
// a fresh server, of segFresh plant re-synthesis requests with distinct
// drifts, one Fischer model job and segRepeats repeats of earlier requests
// of the segment, in a seed-drawn order. Short segments keep every seed's
// stream alike in cost: a server seeds each warm start from its newest kept
// snapshot, so what a request costs depends on the requests before it.
// Twelve segments, twice the Fischer model pool, give 144 requests, enough
// for a p90 with ten samples beyond it, in a pass of about 1.5 s, so a run replays the stream about
// twenty times and each request's fastest pass misses the host's slow
// stretches.
const (
	streamSegments = 12
	segFresh       = 8
	segRepeats     = 3
	segLen         = segFresh + 1 + segRepeats
	resynthBatches = 3
	// One closed-loop client: each request's latency is its service time,
	// not how the host schedules concurrent clients on its two cores, and
	// the stream's wall time is the sum of its latencies.
	resynthClients = 1
	serveWorkers   = 2
	// maxRetries bounds how often a client resubmits after a 429.
	maxRetries = 5
)

// request is one generated submission and what its job must settle to.
type request struct {
	body      []byte
	isPlant   bool
	firstSeen int  // index of the request's first sight, -1 if this is it
	found     bool // the verdict of the cold in-process run
}

// wantCache is the cache state the job must report: a first sight misses,
// a repeat hits.
func (r request) wantCache() serve.CacheState {
	if r.firstSeen < 0 {
		return serve.CacheMiss
	}
	return serve.CacheHit
}

// serveResynth streams re-synthesis requests into a fresh in-process
// synthesis server per segment over loopback, from a closed loop of
// resynthClients clients.
type serveResynth struct {
	seed     int64
	segments [][]request
	// Timings of the public calls the setup makes to compute the expected
	// verdicts, reported as the plant and tadsl layers.
	buildMS, parseMS, hashMS []float64
	coldExplored             int
	coldAllocObjects         uint64
}

func newServeResynth(seed int64) workload { return &serveResynth{seed: seed} }

// resynthParams is a drawn disturbance: degraded treatment units, the
// drift a kept snapshot bridges without re-exploring. Every combination in
// the drawn ranges has a schedule found within about 300 states; a shifted
// deadline or crane wear instead makes warm starts fall back to cold runs
// or cost 100k states, and would let the seed decide the stream's cost.
type resynthParams struct{ treatA, treatB int32 }

func (p resynthParams) wire() *serve.ParamsRequest {
	return &serve.ParamsRequest{TreatA: &p.treatA, TreatB: &p.treatB}
}

func (p resynthParams) plant() plant.Params {
	pp := plant.DefaultParams()
	pp.TreatA, pp.TreatB = p.treatA, p.treatB
	return pp
}

// fischerJob is one Fischer model job: the model's parameters and the
// search order the job asks for.
type fischerJob struct {
	procs, k, wait int
	search         string
}

// fischerPool is the pool the Fischer model jobs are drawn from, half of
// them broken. No two share both process count and search order, so no
// model job can warm-start from another's kept snapshot: a correct
// protocol seeded from a near-miss ends negative, and the server's cold
// rerun of such a job fails on the final snapshot the warm attempt left at
// its own checkpoint path (see README.md).
var fischerPool = []fischerJob{
	{2, 2, 2, "bfs"}, {2, 2, 1, "dfs"}, {3, 2, 1, "bfs"}, {3, 2, 2, "dfs"}, {4, 2, 2, "bfs"}, {4, 2, 1, "dfs"},
}

// generate draws the request stream from the seed and computes every
// request's expected verdict. Every pool model serves the same number of
// segments' model jobs, in a seed-drawn order, so the seed does not decide
// how many of the costlier 4-process models a stream holds.
func (w *serveResynth) generate(ctx context.Context) error {
	rng := rand.New(rand.NewSource(w.seed))
	verdicts := make(map[resynthParams]bool)
	w.segments = nil
	for _, m := range rng.Perm(streamSegments) {
		seg, err := w.generateSegment(ctx, rng, fischerPool[m%len(fischerPool)], verdicts)
		if err != nil {
			return err
		}
		w.segments = append(w.segments, seg)
	}
	return nil
}

// generateSegment draws one segment around the model job f. The cold
// verdict of each drift is computed once per stream.
func (w *serveResynth) generateSegment(ctx context.Context, rng *rand.Rand, f fischerJob, verdicts map[resynthParams]bool) ([]request, error) {
	const fresh, model, repeat = 0, 1, 2
	left := [3]int{segFresh, 1, segRepeats}
	seen := make(map[resynthParams]bool)
	seg := make([]request, 0, segLen)
	for i := 0; i < segLen; i++ {
		k := 0
		for r := rng.Intn(left[0] + left[1] + left[2]); r >= left[k]; k++ {
			r -= left[k]
		}
		if k == repeat && len(seg) == 0 {
			k = fresh // a repeat needs an earlier first sight
		}
		left[k]--
		switch k {
		case fresh:
			var p resynthParams
			for {
				p = resynthParams{treatA: 3 + rng.Int31n(6), treatB: 4 + rng.Int31n(7)}
				if !seen[p] {
					break
				}
			}
			seen[p] = true
			found, ok := verdicts[p]
			if !ok {
				var err error
				if found, err = w.coldPlant(ctx, p.plant()); err != nil {
					return nil, err
				}
				verdicts[p] = found
			}
			if !found {
				return nil, fmt.Errorf("drift %+v has no schedule; the drawn ranges must stay feasible", p)
			}
			body, err := json.Marshal(serve.SubmitRequest{
				Plant:       &serve.PlantRequest{Batches: resynthBatches, Params: p.wire()},
				Resynthesis: true,
			})
			if err != nil {
				return nil, err
			}
			seg = append(seg, request{body: body, isPlant: true, firstSeen: -1, found: true})
		case model:
			src := fischerModel(f.procs, f.k, f.wait)
			body, err := json.Marshal(map[string]any{"model": src, "options": map[string]string{"search": f.search}})
			if err != nil {
				return nil, err
			}
			order, err := mc.ParseSearchOrder(f.search)
			if err != nil {
				return nil, err
			}
			found, err := w.coldModel(ctx, src, order)
			if err != nil {
				return nil, err
			}
			seg = append(seg, request{body: body, firstSeen: -1, found: found})
		case repeat:
			j := rng.Intn(len(seg))
			for seg[j].firstSeen >= 0 {
				j = seg[j].firstSeen
			}
			r := seg[j]
			r.firstSeen = j
			seg = append(seg, r)
		}
	}
	return seg, nil
}

// coldPlant returns the expected verdict of one plant request: the
// server's pipeline search run cold in process, with the same default
// options.
func (w *serveResynth) coldPlant(ctx context.Context, p plant.Params) (bool, error) {
	cfg := plant.Config{Qualities: plant.CycleQualities(resynthBatches), Guides: plant.AllGuides, Params: p}
	start := time.Now()
	pl, err := plant.Build(cfg)
	if err != nil {
		return false, err
	}
	w.buildMS = append(w.buildMS, millisSince(start))
	if err := w.hash(pl.Sys, &pl.Goal); err != nil {
		return false, err
	}
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = &mc.FuncObserver{Priority: pl.Priority}
	return w.coldSearch(ctx, pl.Sys, pl.Goal, opts)
}

// hash times tadsl.Hash, the model identity the server keys its cache on.
func (w *serveResynth) hash(sys *ta.System, goal *mc.Goal) error {
	start := time.Now()
	_, err := tadsl.Hash(sys, goal)
	w.hashMS = append(w.hashMS, millisSince(start))
	return err
}

// coldModel is the expected verdict of one model job.
func (w *serveResynth) coldModel(ctx context.Context, src string, order mc.SearchOrder) (bool, error) {
	start := time.Now()
	m, err := tadsl.Parse(src)
	if err != nil {
		return false, err
	}
	w.parseMS = append(w.parseMS, millisSince(start))
	if err := w.hash(m.Sys, &m.Query); err != nil {
		return false, err
	}
	return w.coldSearch(ctx, m.Sys, m.Query, mc.DefaultOptions(order))
}

func (w *serveResynth) coldSearch(ctx context.Context, sys *ta.System, goal mc.Goal, opts mc.Options) (bool, error) {
	c0 := readCounters()
	res, err := mc.ExploreContext(ctx, sys, goal, opts)
	w.coldAllocObjects += readCounters().sub(c0).allocObjects
	if err != nil {
		return false, err
	}
	if res.Abort != mc.AbortNone {
		return false, fmt.Errorf("cold search aborted: %s", res.Abort)
	}
	w.coldExplored += res.Stats.StatesExplored
	return res.Found, nil
}

func millisSince(t time.Time) float64 { return time.Since(t).Seconds() * 1000 }

// setup draws the stream, computes every expected verdict, and warms up a
// server with the first segment.
func (w *serveResynth) setup(ctx context.Context) error {
	if err := w.generate(ctx); err != nil {
		return err
	}
	warm := *w
	warm.segments = w.segments[:1]
	r, err := warm.op(ctx, nil, -1)
	if err != nil {
		return err
	}
	return r.check()
}

func (w *serveResynth) reps(seconds float64) int { return repsFor(seconds, 1.5) }

// reqRecord is one request's outcome.
type reqRecord struct {
	want      request
	cache     serve.CacheState
	warm      bool
	latencyMS float64
	admitMS   float64 // traced rounds only
	searchS   float64 // the job report's duration_seconds
	throttled int
	failed    bool
	job       serve.JobJSON
}

// roundDetail is what a round hands to layers.
type roundDetail struct {
	records       []reqRecord
	queueDepthMax int
	busyShares    []float64 // one per segment
	snapFiles     int
	snapBytes     int64
	snapLoadMS    []float64
}

// op runs the whole stream once, each segment against a fresh server. Its
// wall time and runtime counters cover the streaming only, not the
// servers' start and drain.
func (w *serveResynth) op(ctx context.Context, tr *tracer, req int) (opResult, error) {
	var r opResult
	var d roundDetail
	for _, seg := range w.segments {
		if err := w.segment(ctx, seg, tr, req, &r, &d); err != nil {
			return r, err
		}
	}
	r.attempted = len(d.records)
	for _, rec := range d.records {
		r.latenciesMS = append(r.latenciesMS, rec.latencyMS)
		// The one client sends each request when the one before has
		// settled, so the stream's wall time is its requests' latencies.
		r.partWalls = append(r.partWalls, rec.latencyMS/1000)
		if rec.failed {
			r.failed++
		}
		if rep := rec.job.Report; rep != nil {
			r.searchMem = max(r.searchMem, rep.Stats.MemBytes)
		}
	}
	r.detail = d
	r.check = func() error { return w.checkRound(d.records) }
	return r, nil
}

// segment streams one segment into a fresh server, adding its streaming
// time and counters to r and its records to d.
func (w *serveResynth) segment(ctx context.Context, seg []request, tr *tracer, req int, r *opResult, d *roundDetail) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv := serve.New(serve.Config{Workers: serveWorkers, CheckpointDir: dir, WarmStart: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(ctx)
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: resynthClients}
	c := &client{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport}, tr: tr}

	var stopSampler func() status
	if tr != nil {
		stopSampler = c.sampleStatus()
	}
	records := make([]reqRecord, len(seg))
	done := make([]chan struct{}, len(seg))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var part opResult
	firstID := req*len(w.segments)*segLen + len(d.records) // request ids unique within the run
	sw := startWatch()
	for k := 0; k < resynthClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seg) {
					return
				}
				rq := seg[i]
				if rq.firstSeen >= 0 {
					<-done[rq.firstSeen] // a repeat follows its settled first sight
				}
				records[i] = c.submit(ctx, rq, firstID+i)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	sw.stop(&part)
	r.wall += part.wall
	r.counters = r.counters.add(part.counters)
	if stopSampler != nil {
		st := stopSampler()
		d.queueDepthMax = max(d.queueDepthMax, st.queueDepthMax)
		d.busyShares = append(d.busyShares, st.busyShare)
	}

	shutdownErr := hs.Shutdown(ctx)
	transport.CloseIdleConnections()
	srv.Drain(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	d.records = append(d.records, records...)
	if tr != nil {
		return snapshotLayer(dir, tr, req, d)
	}
	return nil
}

// checkRound verifies every settled job against its expected verdict and
// cache state. Failed requests are counted, not checked.
func (w *serveResynth) checkRound(records []reqRecord) error {
	for i, rec := range records {
		if rec.failed {
			continue
		}
		want := rec.want
		if rec.cache != want.wantCache() {
			return fmt.Errorf("request %d: cache %q, want %q", i, rec.cache, want.wantCache())
		}
		rep := rec.job.Report
		if rep == nil {
			return fmt.Errorf("request %d: settled job carries no report", i)
		}
		if rep.Result.Found != want.found {
			return fmt.Errorf("request %d: found=%v, the cold in-process run says %v", i, rep.Result.Found, want.found)
		}
		if want.isPlant && (rec.job.Schedule == nil || rec.job.Program == nil) {
			return fmt.Errorf("request %d: plant job settled without schedule and program", i)
		}
	}
	return nil
}

// snapshotLayer times snapshot.ReadHeader and snapshot.Load on the
// checkpoint files a round left behind.
func snapshotLayer(dir string, tr *tracer, req int, d *roundDetail) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return err
	}
	root := tr.begin("snapshot.scan", -1, req)
	defer tr.end(root)
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		d.snapFiles++ // summed over the round's segments
		d.snapBytes += fi.Size()
		var herr, lerr error
		tr.do("snapshot.read_header", root, req, func() { _, herr = snapshot.ReadHeader(p) })
		start := time.Now()
		id := tr.begin("snapshot.load", root, req)
		_, lerr = snapshot.Load(p)
		tr.end(id)
		d.snapLoadMS = append(d.snapLoadMS, millisSince(start))
		if err := errors.Join(herr, lerr); err != nil {
			return fmt.Errorf("checkpoint %s: %w", filepath.Base(p), err)
		}
	}
	return nil
}

// client is one round's HTTP client side.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

// submit sends one request and returns its settled record. Untraced, it
// POSTs with ?wait=1; traced, it POSTs without waiting (the admission
// span) and then follows the job's event stream to its done event.
func (c *client) submit(ctx context.Context, rq request, reqID int) reqRecord {
	rec := reqRecord{want: rq}
	root := c.tr.begin("request", -1, reqID)
	defer c.tr.end(root)
	url := c.base + "/v1/jobs"
	if c.tr == nil {
		url += "?wait=1"
	}
	start := time.Now()
	var status int
	var body []byte
	var err error
	for attempt := 0; ; attempt++ {
		id := c.tr.begin("serve.admit", root, reqID)
		admitStart := time.Now()
		status, body, err = c.do(ctx, http.MethodPost, url, rq.body)
		rec.admitMS = millisSince(admitStart)
		c.tr.end(id)
		if err != nil || status != http.StatusTooManyRequests {
			break
		}
		rec.throttled++
		if attempt == maxRetries {
			break
		}
		time.Sleep(time.Duration(10<<attempt) * time.Millisecond)
	}
	if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
		rec.failed = true
		rec.latencyMS = millisSince(start)
		return rec
	}
	if err := json.Unmarshal(body, &rec.job); err != nil {
		rec.failed = true
		rec.latencyMS = millisSince(start)
		return rec
	}
	if rec.job.State != serve.JobDone && c.tr != nil {
		id := c.tr.begin("serve.wait", root, reqID)
		rec.job, err = c.awaitDone(ctx, rec.job.ID)
		c.tr.end(id)
	}
	rec.latencyMS = millisSince(start)
	rec.failed = err != nil || rec.job.State != serve.JobDone
	rec.cache = rec.job.Cache
	rec.warm = rec.job.WarmStartedFrom != ""
	if rep := rec.job.Report; rep != nil {
		rec.searchS = rep.Stats.DurationSeconds
	}
	return rec
}

func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// awaitDone follows a job's server-sent events to its done event.
func (c *client) awaitDone(ctx context.Context, id string) (serve.JobJSON, error) {
	var job serve.JobJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return job, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			return job, json.Unmarshal([]byte(data), &job)
		}
	}
	if err := sc.Err(); err != nil {
		return job, err
	}
	return job, fmt.Errorf("job %s: event stream ended without a done event", id)
}

// status is what sampling /v1/status recorded: the deepest queue and the
// mean share of busy workers.
type status struct {
	queueDepthMax int
	busyShare     float64
}

// sampleStatus polls /v1/status until the returned stop function is
// called, which returns what the samples showed.
func (c *client) sampleStatus() (stop func() status) {
	quit := make(chan struct{})
	finished := make(chan status)
	go func() {
		var st status
		var busy, slots int
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				st.busyShare = ratio(float64(busy), float64(slots))
				finished <- st
				return
			case <-tick.C:
			}
			code, body, err := c.do(context.Background(), http.MethodGet, c.base+"/v1/status", nil)
			if err != nil || code != http.StatusOK {
				continue
			}
			var sj serve.StatusJSON
			if json.Unmarshal(body, &sj) != nil {
				continue
			}
			st.queueDepthMax = max(st.queueDepthMax, sj.QueueDepth)
			for _, wk := range sj.Workers {
				slots++
				if wk.Busy {
					busy++
				}
			}
		}
	}()
	return func() status {
		close(quit)
		return <-finished
	}
}

func (w *serveResynth) layers(spans []span, traced []opResult) map[string]float64 {
	m := make(map[string]float64)
	var admit, warmL, coldL, hitL, exploreS, loadMS []float64
	var queueMax, throttled, files, plantMisses, warmHits, hits, n int
	var busy, dirMB []float64
	var searchSum, latencySum float64
	var c searchCounts
	for _, r := range traced {
		d := r.detail.(roundDetail)
		var roundSearch float64
		for _, rec := range d.records {
			n++
			admit = append(admit, rec.admitMS)
			throttled += rec.throttled
			searchSum += rec.searchS
			latencySum += rec.latencyMS / 1000
			switch {
			case rec.cache == serve.CacheHit:
				hits++
				hitL = append(hitL, rec.latencyMS)
			case rec.want.isPlant && rec.warm:
				plantMisses++
				warmHits++
				warmL = append(warmL, rec.latencyMS)
			case rec.want.isPlant:
				plantMisses++
				coldL = append(coldL, rec.latencyMS)
			}
			if rec.cache == serve.CacheMiss && rec.job.Report != nil {
				st := rec.job.Report.Stats
				roundSearch += st.DurationSeconds
				c.add(mc.Stats{
					StatesExplored: st.StatesExplored, StatesStored: st.StatesStored,
					Transitions: st.Transitions, PeakWaiting: st.PeakWaiting,
					Evictions: st.Evictions, StoreBytes: st.StoreBytes,
				})
			}
		}
		exploreS = append(exploreS, roundSearch)
		queueMax = max(queueMax, d.queueDepthMax)
		busy = append(busy, d.busyShares...)
		files = max(files, d.snapFiles)
		dirMB = append(dirMB, float64(d.snapBytes)/mib)
		loadMS = append(loadMS, d.snapLoadMS...)
	}
	// The mc counters are per round: the sums over all traced rounds
	// divided by their number.
	rounds := len(traced)
	c = searchCounts{
		explored: c.explored / rounds, stored: c.stored / rounds, transitions: c.transitions / rounds,
		peakWaiting: c.peakWaiting, evictions: c.evictions / int64(rounds), storeBytes: c.storeBytes / int64(rounds),
	}
	addSearchLayer(m, c, median(exploreS))
	m["mc.allocs_per_state"] = ratio(float64(w.coldAllocObjects), float64(w.coldExplored))
	m["plant.build_ms"] = median(w.buildMS)
	m["tadsl.parse_ms"] = median(w.parseMS)
	m["tadsl.hash_ms"] = median(w.hashMS)
	m["snapshot.files"] = float64(files)
	m["snapshot.dir_mb"] = median(dirMB)
	m["snapshot.load_ms"] = median(loadMS)
	m["serve.admit_ms"] = median(admit)
	m["serve.search_share"] = ratio(searchSum, latencySum)
	m["serve.cache_hit_ratio"] = ratio(float64(hits), float64(n))
	m["serve.warm_hit_ratio"] = ratio(float64(warmHits), float64(plantMisses))
	m["serve.latency_warm_p50_ms"] = median(warmL)
	m["serve.latency_cold_p50_ms"] = median(coldL)
	m["serve.latency_hit_p50_ms"] = median(hitL)
	m["serve.queue_depth_max"] = float64(queueMax)
	m["serve.workers_busy_share"] = median(busy)
	m["serve.throttled"] = float64(throttled)
	return m
}
