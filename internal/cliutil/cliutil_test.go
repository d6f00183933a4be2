package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/ta"
)

func TestSearchFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddSearchFlags(fs, mc.DefaultOptions(mc.DFS))
	err := fs.Parse([]string{
		"-search", "bfs", "-workers", "4", "-compact", "-max-memory", "256",
		"-max-states", "1000", "-timeout", "2s", "-no-active", "-stats",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Search != mc.BFS || opts.Workers != 4 || !opts.Compact {
		t.Errorf("search/workers/compact not carried: %+v", opts)
	}
	if opts.MaxMemory != 256<<20 {
		t.Errorf("MaxMemory = %d, want 256MB", opts.MaxMemory)
	}
	if opts.MaxStates != 1000 || opts.Timeout != 2*time.Second {
		t.Errorf("limits not carried: %+v", opts)
	}
	if opts.ActiveClocks || !opts.Inclusion {
		t.Errorf("toggles not carried: active=%v inclusion=%v", opts.ActiveClocks, opts.Inclusion)
	}
	if !opts.Profile {
		t.Error("-stats should enable profiling")
	}
}

func TestSearchFlagsDefaultsAndOmit(t *testing.T) {
	def := mc.DefaultOptions(mc.BFS)
	def.HashBits = 23
	def.MaxStates = 3_000_000
	def.MaxMemory = 2048 << 20
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddSearchFlags(fs, def, "search")
	if fs.Lookup("search") != nil {
		t.Error("omitted flag was still registered")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Search != mc.BFS {
		t.Errorf("default search = %v, want BFS", opts.Search)
	}
	if opts.HashBits != 23 || opts.MaxStates != 3_000_000 || opts.MaxMemory != 2048<<20 {
		t.Errorf("caller defaults not kept: %+v", opts)
	}
}

func TestSearchFlagsBadOrder(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddSearchFlags(fs, mc.DefaultOptions(mc.DFS))
	if err := fs.Parse([]string{"-search", "astar"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(); err == nil {
		t.Error("unknown search order should error")
	}
}

// reportModel is a tiny two-location model whose exhaustive search is
// instant but still produces every stat the report records.
func reportModel(t *testing.T) (*ta.System, mc.Goal) {
	t.Helper()
	s := ta.NewSystem("tiny")
	x := s.AddClock("x")
	a := s.AddAutomaton("A")
	l0 := a.AddLocation("l0", ta.Normal)
	l1 := a.AddLocation("l1", ta.Normal)
	pit := a.AddLocation("pit", ta.Normal)
	a.SetInit(l0)
	a.Edge(l0, l1).When(ta.GE(x, 1)).Done()
	return s, mc.Goal{Desc: "unreachable pit", Locs: []mc.LocRequirement{{Automaton: 0, Location: pit}}}
}

// TestReportMatchesSchemaAndStats runs a real search through the report
// observer and checks that the rendered JSON validates against the
// checked-in schema and mirrors the returned Stats exactly.
func TestReportMatchesSchemaAndStats(t *testing.T) {
	sys, goal := reportModel(t)
	rep := NewReport("cliutil-test")
	run := rep.Run("tiny")
	run.SetModel(sys, &goal, "")
	opts := mc.DefaultOptions(mc.BFS)
	opts.SnapshotEvery = time.Millisecond
	opts.Observer = run.Observer()
	run.SetOptions(opts)
	res, err := mc.Explore(sys, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("report does not validate against its schema: %v\n%s", err, data)
	}
	if run.Stats.StatesExplored != res.Stats.StatesExplored ||
		run.Stats.StatesStored != res.Stats.StatesStored ||
		run.Stats.PeakWaiting != res.Stats.PeakWaiting ||
		run.Stats.MemBytes != res.Stats.MemBytes {
		t.Errorf("report stats %+v do not mirror result stats %+v", run.Stats, res.Stats)
	}
	if run.Result.Found || run.Result.Abort != "" {
		t.Errorf("result block wrong: %+v", run.Result)
	}
	if run.Snapshots < 1 {
		t.Error("no snapshots counted (the final snapshot alone should give 1)")
	}
	if run.Model == nil || run.Model.SHA256 == "" {
		t.Fatal("model identity missing")
	}
	// The hash is a function of the model's canonical serialization:
	// rebuilding the same model gives the same identity.
	sys2, goal2 := reportModel(t)
	run2 := &RunReport{}
	run2.SetModel(sys2, &goal2, "")
	if run2.Model.SHA256 != run.Model.SHA256 {
		t.Error("identical models got different hashes")
	}
}

func TestValidateJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"missing-required", `{"tool": "x"}`},
		{"wrong-type", `{"tool": 7, "args": [], "started": "s", "go_version": "g", "os": "l", "arch": "a", "num_cpu": 1, "runs": []}`},
		{"bad-run", `{"tool": "x", "args": [], "started": "s", "go_version": "g", "os": "l", "arch": "a", "num_cpu": 1, "runs": [{"name": "r"}]}`},
		{"not-json", `{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateReport([]byte(tc.doc)); err == nil {
				t.Error("invalid document validated")
			}
		})
	}
}

// TestReportFileAgainstSchema validates an externally produced report file
// named by REPORT_FILE — the CI smoke job runs guidedmc -report and then
// invokes exactly this test against the output. Without the variable the
// test is skipped.
func TestReportFileAgainstSchema(t *testing.T) {
	path := os.Getenv("REPORT_FILE")
	if path == "" {
		t.Skip("REPORT_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("%s does not validate: %v", path, err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("report has no runs")
	}
	for _, run := range rep.Runs {
		if run.Stats.StatesExplored <= 0 {
			t.Errorf("run %q explored no states", run.Name)
		}
	}
}

func TestProgressObserver(t *testing.T) {
	var buf bytes.Buffer
	obs := ProgressObserver(&buf, "testtool")
	obs.Snapshot(mc.Snapshot{Elapsed: time.Second, StatesExplored: 123456, StatesPerSec: 4567, Waiting: 89, MemBytes: 5 << 20})
	obs.Snapshot(mc.Snapshot{Elapsed: 2 * time.Second, StatesExplored: 250000, Final: true})
	out := buf.String()
	if !strings.Contains(out, "testtool") || !strings.Contains(out, "123.5k") {
		t.Errorf("progress line missing content: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("final snapshot did not terminate the line")
	}
	if strings.Count(out, "\r") != 2 {
		t.Errorf("expected two carriage returns, got %q", out)
	}
	if v, d, s := obs.OnVisit, obs.OnDeadend, obs.OnSnapshot; v != nil || d != nil || s == nil {
		t.Error("progress observer should listen to snapshots only")
	}
}

func TestInstrument(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddSearchFlags(fs, mc.DefaultOptions(mc.BFS))
	if err := fs.Parse([]string{"-report", dir + "/run.json", "-snapshot-every", "1ms"}); err != nil {
		t.Fatal(err)
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	sys, goal := reportModel(t)
	prio := func(mc.Transition) int { return 1 }
	opts.Observer = &mc.FuncObserver{Priority: prio}
	rep := f.Instrument("testtool", "tiny", &opts, sys, &goal)
	if rep == nil {
		t.Fatal("-report should produce a report")
	}
	if opts.SnapshotEvery != time.Millisecond {
		t.Errorf("SnapshotEvery = %v, want 1ms", opts.SnapshotEvery)
	}
	if mc.PriorityOf(opts.Observer) == nil {
		t.Error("instrumenting dropped the caller's priority")
	}
	if _, err := mc.Explore(sys, goal, opts); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteReport(rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/run.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("written report invalid: %v", err)
	}
}
