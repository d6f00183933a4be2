package synth

import (
	"reflect"
	"strings"
	"testing"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
)

// demoSchedule builds a small hand-written schedule.
func demoSchedule() schedule.Schedule {
	cmd := func(unit, action string, arg int) plant.Command {
		return plant.Command{Unit: unit, Action: action, Arg: arg}
	}
	return schedule.Schedule{
		Batches: 1,
		Horizon: 14 * mc.Half,
		Lines: []schedule.Line{
			{Time: 0, Cmd: cmd("Load0", "PourTrack1", 1)},
			{Time: 0, Cmd: cmd("Load0", "Track1Right", 0)},
			{Time: 4 * mc.Half, Cmd: cmd("Load0", "Machine1On", 1)},
			{Time: 9 * mc.Half, Cmd: cmd("Load0", "Machine1Off", 1)},
			{Time: 14 * mc.Half, Cmd: cmd("Crane1", "MoveRight", 0)},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := demoSchedule()
	c := NewCodec(s)
	if c.NumCommands() != 5 {
		t.Fatalf("NumCommands = %d, want 5", c.NumCommands())
	}
	seen := map[int]bool{}
	for _, l := range s.Lines {
		code, ok := c.Encode(l.Cmd)
		if !ok {
			t.Fatalf("command %v not encoded", l.Cmd)
		}
		if code < 10 {
			t.Errorf("code %d collides with reserved range", code)
		}
		if seen[code] {
			t.Errorf("duplicate code %d", code)
		}
		seen[code] = true
		back, ok := c.Decode(code)
		if !ok || back != l.Cmd {
			t.Errorf("Decode(%d) = %v, want %v", code, back, l.Cmd)
		}
	}
	if _, ok := c.Decode(9999); ok {
		t.Error("bogus code decoded")
	}
	if _, ok := c.Encode(plant.Command{Unit: "Nope", Action: "X"}); ok {
		t.Error("unknown command encoded")
	}
}

func TestCodecDeterministic(t *testing.T) {
	s := demoSchedule()
	a, b := NewCodec(s), NewCodec(s)
	for _, l := range s.Lines {
		ca, _ := a.Encode(l.Cmd)
		cb, _ := b.Encode(l.Cmd)
		if ca != cb {
			t.Fatalf("nondeterministic code assignment for %v", l.Cmd)
		}
	}
}

func TestProgramStructure(t *testing.T) {
	s := demoSchedule()
	codec := NewCodec(s)
	prog, err := Program(s, codec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	text := prog.String()
	// Figure 6 ingredients: sends, ack loop, retry If, waits, halt.
	for _, want := range []string{
		"PB.SendPBMessage", "PB.While", "PB.If", "PB.EndWhile",
		"PB.Wait", "PB.ClearPBMessage", "PB.Halt", "send again", "wait for ack",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("program missing %q", want)
		}
	}
	// Exactly one Wait per nonzero delay between distinct times, plus the
	// in-loop poll waits. Delay from t=0 to 4, 4 to 9, 9 to 14: 3 delay
	// waits with comments.
	delays := strings.Count(text, "' Delay")
	if delays != 3 {
		t.Errorf("%d delay waits, want 3:\n%s", delays, text)
	}
}

func TestProgramDelayTicks(t *testing.T) {
	s := demoSchedule()
	codec := NewCodec(s)
	prog, err := Program(s, codec, Options{TicksPerUnit: 100})
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int
	for _, in := range prog {
		if in.Op == rcx.OpWait && strings.HasPrefix(in.Comment, "Delay") {
			ticks = append(ticks, in.Args[1])
		}
	}
	want := []int{400, 500, 500}
	if len(ticks) != len(want) {
		t.Fatalf("delays %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("delay %d = %d ticks, want %d", i, ticks[i], want[i])
		}
	}
}

func TestProgramRejectsForeignCommand(t *testing.T) {
	s := demoSchedule()
	other := NewCodec(schedule.Schedule{Lines: []schedule.Line{{Cmd: plant.Command{Unit: "Z", Action: "Q"}}}})
	if _, err := Program(s, other, Options{}); err == nil {
		t.Error("schedule with commands outside the codec accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TicksPerUnit != 100 || o.AckPollTicks != 2 || o.ResendAfter != 20 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{TicksPerUnit: 10, AckPollTicks: 1, ResendAfter: 5}.withDefaults()
	if o.TicksPerUnit != 10 || o.AckPollTicks != 1 || o.ResendAfter != 5 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

// TestProgramSendBlocks: Program appends each command's send block in
// place into one buffer sized up front, and every block is sendBlock's.
func TestProgramSendBlocks(t *testing.T) {
	s := demoSchedule()
	codec := NewCodec(s)
	opts := Options{}.withDefaults()
	prog, err := Program(s, codec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Lines)*(sendBlockLen+1) + 1; cap(prog) != want {
		t.Errorf("program buffer capacity %d, want the %d reserved up front", cap(prog), want)
	}
	i := 0
	for _, l := range s.Lines {
		if prog[i].Op == rcx.OpWait && strings.HasPrefix(prog[i].Comment, "Delay") {
			i++
		}
		code, _ := codec.Encode(l.Cmd)
		block := sendBlock(code, l.Cmd.String(), opts)
		if len(block) != sendBlockLen {
			t.Fatalf("send block of %d instructions, want %d", len(block), sendBlockLen)
		}
		if !reflect.DeepEqual(prog[i:i+len(block)], block) {
			t.Fatalf("line %v: program block differs from sendBlock", l.Cmd)
		}
		i += len(block)
	}
	if i != len(prog)-1 || prog[i].Op != rcx.OpHalt {
		t.Fatalf("program has %d instructions after its blocks, want the Halt alone", len(prog)-i)
	}
}

// BenchmarkProgram synthesizes the control program of the 3-batch plant's
// schedule, found by the guided DFS search, as every synthesis request
// does once its schedule is concretized.
func BenchmarkProgram(b *testing.B) {
	p, err := plant.Build(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides})
	if err != nil {
		b.Fatal(err)
	}
	opts := mc.DefaultOptions(mc.DFS)
	opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	res, err := mc.Explore(p.Sys, p.Goal, opts)
	if err != nil || !res.Found {
		b.Fatalf("no schedule: %v", err)
	}
	steps, err := mc.Concretize(p.Sys, res.Trace)
	if err != nil {
		b.Fatal(err)
	}
	s := schedule.FromTrace(p, steps)
	codec := NewCodec(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Program(s, codec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
