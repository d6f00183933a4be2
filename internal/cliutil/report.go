package cliutil

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// Report is the machine-readable run report behind the -report flag: one
// invocation of a tool with one or more searches (guidedmc runs one,
// table1 one per cell). Its JSON form is validated against the checked-in
// report.schema.json by the cliutil tests and the CI smoke job.
type Report struct {
	Tool      string       `json:"tool"`
	Args      []string     `json:"args"`
	Started   string       `json:"started"`
	GoVersion string       `json:"go_version"`
	OS        string       `json:"os"`
	Arch      string       `json:"arch"`
	NumCPU    int          `json:"num_cpu"`
	Runs      []*RunReport `json:"runs"`
}

// RunReport describes one search: the model identity, the query and
// options, and the outcome. Stats mirror mc.Stats field by field so the
// report numbers match the printed statistics exactly.
type RunReport struct {
	Name      string        `json:"name"`
	Model     *ModelInfo    `json:"model,omitempty"`
	Query     string        `json:"query"`
	Options   ReportOptions `json:"options"`
	Result    ReportResult  `json:"result"`
	Stats     ReportStats   `json:"stats"`
	Snapshots int           `json:"snapshots"`
}

// ModelInfo identifies the analyzed model: its size statistics plus a
// content hash of its canonical tadsl serialization, so two reports can be
// compared knowing whether they analyzed the very same model.
type ModelInfo struct {
	Name      string `json:"name"`
	Automata  int    `json:"automata"`
	Locations int    `json:"locations"`
	Edges     int    `json:"edges"`
	Clocks    int    `json:"clocks"`
	IntCells  int    `json:"int_cells"`
	Channels  int    `json:"channels"`
	SHA256    string `json:"sha256"`
}

// ReportOptions is the JSON projection of mc.Options.
type ReportOptions struct {
	Search         string  `json:"search"`
	HashBits       int     `json:"hash_bits"`
	Inclusion      bool    `json:"inclusion"`
	Compact        bool    `json:"compact"`
	ActiveClocks   bool    `json:"active_clocks"`
	Workers        int     `json:"workers"`
	MaxStates      int     `json:"max_states"`
	MaxMemoryBytes int64   `json:"max_memory_bytes"`
	TimeoutSeconds float64 `json:"timeout_seconds"`
}

// ReportResult is the verdict of one search.
type ReportResult struct {
	Found    bool   `json:"found"`
	Abort    string `json:"abort"`
	TraceLen int    `json:"trace_len"`
}

// ReportStats is the JSON projection of mc.Stats.
type ReportStats struct {
	StatesExplored  int     `json:"states_explored"`
	StatesStored    int     `json:"states_stored"`
	Transitions     int     `json:"transitions"`
	PeakWaiting     int     `json:"peak_waiting"`
	MaxDepth        int     `json:"max_depth"`
	Deadends        int     `json:"deadends"`
	DiscreteStates  int     `json:"discrete_states"`
	Evictions       int64   `json:"evictions"`
	Steals          int64   `json:"steals"`
	StoreBytes      int64   `json:"store_bytes"`
	MemBytes        int64   `json:"mem_bytes"`
	DurationSeconds float64 `json:"duration_seconds"`
	StatesPerSec    float64 `json:"states_per_sec"`
	BytesPerState   float64 `json:"bytes_per_state"`
	// The warm-start counter (mc.Stats.WarmReplays), absent when the run
	// replayed no seed candidate.
	WarmReplays int `json:"warm_replays,omitempty"`
}

// NewReport starts a report for one tool invocation, capturing the command
// line and the runtime environment.
func NewReport(tool string) *Report {
	return &Report{
		Tool:      tool,
		Args:      append([]string{}, os.Args[1:]...),
		Started:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Run appends a new named run and returns it for filling.
func (r *Report) Run(name string) *RunReport {
	rr := &RunReport{Name: name}
	r.Runs = append(r.Runs, rr)
	return rr
}

// Bytes renders the report as indented JSON.
func (r *Report) Bytes() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.Bytes()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("cliutil: writing report: %w", err)
	}
	return nil
}

// SetModel records the model identity (and, from goal, the query). Both
// model arguments are optional. digest is the model's tadsl.Hash when the
// caller already computed it (the synthesis service hashes every model at
// admission); "" means compute it here. A model that cannot be serialized
// keeps an empty hash rather than failing the run.
func (rr *RunReport) SetModel(sys *ta.System, goal *mc.Goal, digest string) {
	if goal != nil {
		rr.Query = goal.String()
	}
	if sys == nil {
		return
	}
	st := sys.Stats()
	mi := &ModelInfo{
		Name:      sys.Name,
		Automata:  st.Automata,
		Locations: st.Locations,
		Edges:     st.Edges,
		Clocks:    st.Clocks,
		IntCells:  st.IntCells,
		Channels:  st.Channels,
	}
	if digest == "" {
		digest, _ = tadsl.Hash(sys, goal)
	}
	mi.SHA256 = digest
	rr.Model = mi
}

// SetOptions records the search configuration.
func (rr *RunReport) SetOptions(opts mc.Options) {
	rr.Options = ReportOptions{
		Search:         opts.Search.String(),
		HashBits:       opts.HashBits,
		Inclusion:      opts.Inclusion,
		Compact:        opts.Compact,
		ActiveClocks:   opts.ActiveClocks,
		Workers:        opts.Workers,
		MaxStates:      opts.MaxStates,
		MaxMemoryBytes: opts.MaxMemory,
		TimeoutSeconds: opts.Timeout.Seconds(),
	}
}

// SetResult records the outcome of a search. It is also what the
// Observer's Done hook calls, so manual filling is only needed when no
// observer was attached.
func (rr *RunReport) SetResult(res mc.Result) {
	rr.Result = ReportResult{
		Found:    res.Found,
		Abort:    string(res.Abort),
		TraceLen: len(res.Trace),
	}
	st := res.Stats
	rr.Stats = ReportStats{
		StatesExplored:  st.StatesExplored,
		StatesStored:    st.StatesStored,
		Transitions:     st.Transitions,
		PeakWaiting:     st.PeakWaiting,
		MaxDepth:        st.MaxDepth,
		Deadends:        st.Deadends,
		DiscreteStates:  st.DiscreteStates,
		Evictions:       st.Evictions,
		Steals:          st.Steals,
		StoreBytes:      st.StoreBytes,
		MemBytes:        st.MemBytes,
		DurationSeconds: st.Duration.Seconds(),
		BytesPerState:   st.BytesPerStoredState(),
		WarmReplays:     st.WarmReplays,
	}
	if st.Duration > 0 {
		rr.Stats.StatesPerSec = float64(st.StatesExplored) / st.Duration.Seconds()
	}
}

// Observer returns the hook that fills the run from a search: it counts
// progress snapshots and records the final Result.
func (rr *RunReport) Observer() *mc.FuncObserver {
	return &mc.FuncObserver{
		OnSnapshot: func(mc.Snapshot) { rr.Snapshots++ },
		OnDone:     func(res mc.Result) { rr.SetResult(res) },
	}
}
