package serve

// apitypes.go is the complete typed wire schema of the /v1 HTTP API —
// every request and response body in one place, so the JSON surface can
// be read (and pinned by tests) without chasing handlers.

import (
	"encoding/json"

	"guidedta/internal/cliutil"
)

// SubmitRequest is the POST /v1/jobs body: a model to check (tadsl source
// or a named plant configuration) plus search options.
type SubmitRequest struct {
	// Model is tadsl source text including a `query exists ...` line.
	Model string `json:"model,omitempty"`
	// Plant asks for the paper's batch-plant scheduling pipeline instead
	// of a raw model: the schedule search plus RCX program synthesis.
	Plant *PlantRequest `json:"plant,omitempty"`
	// Options configures the search; absent fields keep server defaults.
	Options OptionsRequest `json:"options"`
	// Resynthesis marks a re-synthesis of an already-deployed schedule
	// (a plant whose parameters drifted while its schedule was running).
	// The fair queue serves a tenant's re-synthesis jobs ahead of its
	// normal work; the verdict and its cache key are unaffected.
	Resynthesis bool `json:"resynthesis,omitempty"`

	// tenant is the admission tenant, taken from the X-Tenant request
	// header by the handler — not part of the JSON body, so a client
	// cannot impersonate a tenant the transport layer didn't vouch for.
	tenant string
}

// PlantRequest names a plant scheduling instance, mirroring the
// cmd/plantsynth flags.
type PlantRequest struct {
	// Batches cycles the default Q1,Q2,Q3 production list to this length
	// (ignored when Qualities is given).
	Batches int `json:"batches,omitempty"`
	// Qualities is an explicit production list (steel qualities 1..5).
	Qualities []int `json:"qualities,omitempty"`
	// Guides is the guide level: "none", "some", or "all" (default).
	Guides string `json:"guides,omitempty"`
	// Params overlays individual plant timing parameters onto the paper's
	// defaults — the wire form of a fleet plant's measured disturbances
	// (wear slowing movements, a shifted deadline, a slower recipe).
	// Absent fields keep plant.DefaultParams.
	Params *ParamsRequest `json:"params,omitempty"`
}

// ParamsRequest is a sparse overlay over plant.DefaultParams: every field
// is optional, and only present fields replace the default. All times are
// in the model's abstract time units (see plant.Params).
type ParamsRequest struct {
	BMove    *int32 `json:"b_move,omitempty"`
	CMove    *int32 `json:"c_move,omitempty"`
	CUp      *int32 `json:"c_up,omitempty"`
	CDown    *int32 `json:"c_down,omitempty"`
	TreatA   *int32 `json:"treat_a,omitempty"`
	TreatB   *int32 `json:"treat_b,omitempty"`
	TreatM3  *int32 `json:"treat_m3,omitempty"`
	CastTime *int32 `json:"cast_time,omitempty"`
	TurnTime *int32 `json:"turn_time,omitempty"`
	Deadline *int32 `json:"deadline,omitempty"`
}

// OptionsRequest carries the client's search options verbatim until
// resolution overlays them onto the server defaults via the mc.Options
// JSON contract: absent fields keep the defaults (the receiver is the
// third state of the old per-field tri-states), and an unknown key is a
// 400. See mc.Options.UnmarshalJSON for the field list.
type OptionsRequest struct {
	raw json.RawMessage
}

// UnmarshalJSON captures the raw options object for later overlay.
func (o *OptionsRequest) UnmarshalJSON(data []byte) error {
	o.raw = append(o.raw[:0], data...)
	return nil
}

// MarshalJSON round-trips the captured object ("{}" when unset).
func (o OptionsRequest) MarshalJSON() ([]byte, error) {
	if len(o.raw) == 0 {
		return []byte("{}"), nil
	}
	return o.raw, nil
}

// DiscoverRequest is the POST /v1/discover body: run automatic guide
// discovery (internal/guide) on a plant instance.
type DiscoverRequest struct {
	// Plant is the instance to search guides for (required). Its guide
	// level is ignored — the search owns the guide selection.
	Plant *PlantRequest `json:"plant"`
	// Budget bounds the search's oracle probes; zero fields take the
	// guide.Budget defaults.
	Budget *DiscoverBudget `json:"budget,omitempty"`
	// Seed drives the candidate visiting order; searches are
	// deterministic per seed.
	Seed int64 `json:"seed,omitempty"`
	// Options is the oracle base configuration each probe runs with;
	// absent fields keep server defaults (DFS, compact store).
	Options OptionsRequest `json:"options"`

	// tenant mirrors SubmitRequest.tenant (set from X-Tenant).
	tenant string
}

// DiscoverBudget is the wire form of guide.Budget.
type DiscoverBudget struct {
	// ProbeStates caps each oracle exploration's stored states.
	ProbeStates int `json:"probe_states,omitempty"`
	// MaxProbes caps the number of oracle invocations.
	MaxProbes int `json:"max_probes,omitempty"`
}

// JobJSON is the wire form of a job record, returned by POST /v1/jobs,
// POST /v1/discover, GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, and the
// final SSE event.
type JobJSON struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Cache       CacheState `json:"cache"`
	Created     string     `json:"created"`
	Query       string     `json:"query,omitempty"`
	ModelSHA256 string     `json:"model_sha256,omitempty"`
	Key         string     `json:"key,omitempty"`
	// Report is the schema-validated run report (internal/cliutil) once
	// a model-checking job settles.
	Report *cliutil.RunReport `json:"report,omitempty"`
	// Schedule and Program carry the synthesis artifacts of plant jobs.
	Schedule *ScheduleJSON `json:"schedule,omitempty"`
	Program  *ProgramJSON  `json:"program,omitempty"`
	// Discover carries the guide-search result of discover jobs.
	Discover *DiscoverJSON `json:"discover,omitempty"`
	// ResumedFrom names the checkpoint key this execution was resumed
	// from (the content-addressed cache key, which also names the
	// checkpoint file) when the server's CheckpointDir durability seeded
	// the search from an earlier aborted run. Empty for fresh runs.
	ResumedFrom string `json:"resumed_from,omitempty"`
	// WarmStartedFrom names the checkpoint key whose final snapshot
	// answered this execution's search with a replayed witness
	// (Config.WarmStart): the prior run's own key for a re-run, or a
	// near-miss key — same plant kind and options, different model — for
	// a re-synthesis after a disturbance. Empty for cold runs, including
	// a warm attempt that replayed nothing and searched cold.
	WarmStartedFrom string `json:"warm_started_from,omitempty"`
	Error           string `json:"error,omitempty"`
}

// ScheduleJSON is the projected plant schedule of a plant job: the
// paper's Table 2 content in machine-readable form.
type ScheduleJSON struct {
	Commands []ScheduleCommand `json:"commands"`
	Horizon  string            `json:"horizon"`
	Batches  int               `json:"batches"`
	Text     string            `json:"text"`
}

// ScheduleCommand is one timestamped plant command.
type ScheduleCommand struct {
	Time   string `json:"time"`
	Unit   string `json:"unit"`
	Action string `json:"action"`
}

// ProgramJSON is the synthesized RCX control program of a plant job.
type ProgramJSON struct {
	Instructions int    `json:"instructions"`
	CommandCodes int    `json:"command_codes"`
	Text         string `json:"text"`
}

// DiscoverJSON is the settled result of a discover job: the winning
// guide set plus the search's full evaluation record.
type DiscoverJSON struct {
	// Guides labels the best guide set found ("none" if even the empty
	// set was the best probe).
	Guides string `json:"guides"`
	// Found reports whether any probed guide set reached a schedule
	// within the budget.
	Found bool `json:"found"`
	// Explored and Stored are the winning probe's effort counters.
	Explored int `json:"explored"`
	Stored   int `json:"stored"`
	// Replayed reports the winning schedule passed the unguided replay
	// cross-check.
	Replayed bool `json:"replayed"`
	// Probes is the number of oracle invocations spent; TimeToFirst the
	// cumulative oracle seconds until the first schedule-finding probe.
	Probes             int     `json:"probes"`
	TimeToFirstSeconds float64 `json:"time_to_first_seconds"`
	// Baseline is the unguided probe, Full the complete-portfolio probe,
	// and Evaluations every distinct probe in evaluation order.
	Baseline    EvaluationJSON   `json:"baseline"`
	Full        EvaluationJSON   `json:"full"`
	Evaluations []EvaluationJSON `json:"evaluations"`
}

// EvaluationJSON is one scored guide-set probe.
type EvaluationJSON struct {
	Guides   string `json:"guides"`
	Found    bool   `json:"found"`
	Explored int    `json:"explored"`
	Stored   int    `json:"stored"`
	// Abort is the oracle's abort reason for capped probes ("" when the
	// probe finished its restricted space).
	Abort    string `json:"abort,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
}

// ProbeJSON is the SSE `probe` / `replay` event of a discover job's
// event stream: one frame per oracle probe and per soundness replay.
type ProbeJSON struct {
	Probe    int    `json:"probe"`
	Total    int    `json:"total"`
	Phase    string `json:"phase"` // "probe" or "replay"
	Guides   string `json:"guides"`
	Found    bool   `json:"found,omitempty"`
	Explored int    `json:"explored,omitempty"`
	Stored   int    `json:"stored,omitempty"`
	Best     string `json:"best,omitempty"`
}

// SnapshotJSON is the SSE `snapshot` event: one engine progress sample.
type SnapshotJSON struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	StatesExplored int     `json:"states_explored"`
	StatesPerSec   float64 `json:"states_per_sec"`
	Transitions    int     `json:"transitions"`
	Waiting        int     `json:"waiting"`
	PeakWaiting    int     `json:"peak_waiting"`
	StatesStored   int     `json:"states_stored"`
	StoreBytes     int64   `json:"store_bytes"`
	MemBytes       int64   `json:"mem_bytes"`
	MaxDepth       int     `json:"max_depth"`
	Deadends       int     `json:"deadends"`
	Steals         int64   `json:"steals,omitempty"`
	Final          bool    `json:"final,omitempty"`
}

// StatusJSON is the GET /v1/status body: queue, worker, job, and cache
// health in one view (also published as an expvar by StatusVar).
type StatusJSON struct {
	State              string           `json:"state"` // serving | draining
	QueueDepth         int              `json:"queue_depth"`
	QueueCap           int              `json:"queue_cap"` // per-tenant quota
	Workers            []WorkerStatus   `json:"workers"`
	Jobs               map[JobState]int `json:"jobs"`
	ExecutionsStarted  int64            `json:"executions_started"`
	ExecutionsFinished int64            `json:"executions_finished"`
	// ExecutionsSkipped counts executions settled without running because
	// every attached job canceled while they were still queued.
	ExecutionsSkipped int64 `json:"executions_skipped,omitempty"`
	// WarmStarts counts executions answered by a kept checkpoint's
	// replayed witness (Config.WarmStart).
	WarmStarts int64       `json:"warm_starts,omitempty"`
	Cache      CacheStatus `json:"cache"`
	// Tenants is the fair queue's per-tenant backlog, in tenant creation
	// order (present once any request has been admitted).
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's fair-queue state.
type TenantStatus struct {
	Tenant string `json:"tenant"` // "" is the default tenant
	Weight int    `json:"weight"`
	Queued int    `json:"queued"`
	// Resynth is how many of Queued sit in the priority band.
	Resynth int `json:"resynth,omitempty"`
	Quota   int `json:"quota"`
}

// WorkerStatus is one pool worker's live state.
type WorkerStatus struct {
	Busy    bool    `json:"busy"`
	Job     string  `json:"job,omitempty"` // short cache key of the running execution
	Seconds float64 `json:"seconds,omitempty"`
}

// CacheStatus is the cache block of /v1/status.
type CacheStatus struct {
	Entries   int     `json:"entries"`
	Max       int     `json:"max"`
	InFlight  int     `json:"in_flight"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
}
