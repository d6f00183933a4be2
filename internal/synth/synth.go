// Package synth translates plant schedules into executable RCX control
// programs for the central controller (the paper's Section 6). Every
// schedule line becomes either a Wait (for Delay lines) or the
// send/acknowledge/retry block of the paper's Figure 6 — the RCX infrared
// link offers no reliable communication primitives, so reliability is
// synthesized in-line around every command.
package synth

import (
	"fmt"
	"sort"

	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
)

// Options tune code generation.
type Options struct {
	// TicksPerUnit converts model time units into RCX Wait ticks
	// (default 100, i.e. one model unit = 1 s at the RCX's 10 ms tick).
	TicksPerUnit int
	// AckPollTicks is the in-loop wait between acknowledgement polls
	// (default 2).
	AckPollTicks int
	// ResendAfter is the number of failed polls before the command is
	// retransmitted (default 20, like Figure 6).
	ResendAfter int
}

func (o Options) withDefaults() Options {
	if o.TicksPerUnit == 0 {
		o.TicksPerUnit = 100
	}
	if o.AckPollTicks == 0 {
		o.AckPollTicks = 2
	}
	if o.ResendAfter == 0 {
		o.ResendAfter = 20
	}
	return o
}

// Codec assigns integer message codes to plant commands. Code 0 is
// reserved (the RCX convention for "no message").
type Codec struct {
	byCode map[int]plant.Command
	byKey  map[string]int
}

// codecKey identifies a command for encoding (all three fields matter).
func codecKey(c plant.Command) string {
	return fmt.Sprintf("%s.%s#%d", c.Unit, c.Action, c.Arg)
}

// NewCodec builds a codec covering every distinct command of the schedule,
// with deterministic code assignment.
func NewCodec(s schedule.Schedule) *Codec {
	keys := make(map[string]plant.Command)
	for _, l := range s.Lines {
		keys[codecKey(l.Cmd)] = l.Cmd
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	c := &Codec{byCode: make(map[int]plant.Command), byKey: make(map[string]int)}
	for i, k := range sorted {
		code := i + 10 // leave low codes free for protocol use
		c.byCode[code] = keys[k]
		c.byKey[k] = code
	}
	return c
}

// Encode returns the message code of a command.
func (c *Codec) Encode(cmd plant.Command) (int, bool) {
	code, ok := c.byKey[codecKey(cmd)]
	return code, ok
}

// Decode returns the command for a message code.
func (c *Codec) Decode(code int) (plant.Command, bool) {
	cmd, ok := c.byCode[code]
	return cmd, ok
}

// NumCommands returns the number of distinct command codes.
func (c *Codec) NumCommands() int { return len(c.byCode) }

// Variable slots used by the generated program (the RCX has 32).
const (
	varAck   = 1 // last read of the message buffer
	varTries = 2 // polls since last (re)transmission
)

// Program synthesizes the central-controller program from a schedule.
// The translation is a textual substitution exactly as the paper
// describes: Delay lines become PB.Wait, command lines become the
// in-lined reliable-send block.
func Program(s schedule.Schedule, codec *Codec, opts Options) (rcx.Program, error) {
	opts = opts.withDefaults()
	// At most a Wait and a send block per line, and the Halt.
	prog := make(rcx.Program, 0, len(s.Lines)*(sendBlockLen+1)+1)
	var now int64
	for i, l := range s.Lines {
		if d := l.Time - now; d > 0 {
			ticks := int(d) * opts.TicksPerUnit / mc.Half
			prog = append(prog, rcx.Instr{
				Op: rcx.OpWait, Args: []int{rcx.SrcConst, ticks},
				Comment: fmt.Sprintf("Delay %s", mc.TimeString(d)),
			})
			now = l.Time
		}
		code, ok := codec.Encode(l.Cmd)
		if !ok {
			return nil, fmt.Errorf("synth: line %d: command %s not in codec", i, l.Cmd)
		}
		prog = appendSendBlock(prog, code, l.Cmd.String(), opts)
	}
	prog = append(prog, rcx.Instr{Op: rcx.OpHalt, Comment: "schedule complete"})
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated program invalid: %w", err)
	}
	return prog, nil
}

// sendBlockLen is the number of instructions of a send block.
const sendBlockLen = 15

// sendBlock emits the Figure 6 reliable-send pattern for one command.
func sendBlock(code int, label string, opts Options) rcx.Program {
	return appendSendBlock(make(rcx.Program, 0, sendBlockLen), code, label, opts)
}

// appendSendBlock appends sendBlock's instructions to prog.
func appendSendBlock(prog rcx.Program, code int, label string, opts Options) rcx.Program {
	return append(prog,
		rcx.Instr{Op: rcx.OpPlaySound, Args: []int{1}, Comment: label},
		rcx.Instr{Op: rcx.OpSendPBMessage, Args: []int{rcx.SrcConst, code}},
		rcx.Instr{Op: rcx.OpSetVar, Args: []int{varAck, rcx.SrcMessage, 0}, Comment: "wait for ack"},
		rcx.Instr{Op: rcx.OpWhile, Args: []int{rcx.SrcVar, varAck, rcx.RelNE, rcx.SrcConst, code}},
		rcx.Instr{Op: rcx.OpWait, Args: []int{rcx.SrcConst, opts.AckPollTicks}},
		rcx.Instr{Op: rcx.OpSetVar, Args: []int{varAck, rcx.SrcMessage, 0}, Comment: "read the message"},
		rcx.Instr{Op: rcx.OpSumVar, Args: []int{varTries, rcx.SrcConst, 1}},
		rcx.Instr{Op: rcx.OpIf, Args: []int{rcx.SrcVar, varTries, rcx.RelGT, rcx.SrcConst, opts.ResendAfter}, Comment: fmt.Sprintf("if polled %d times", opts.ResendAfter)},
		rcx.Instr{Op: rcx.OpPlaySound, Args: []int{1}},
		rcx.Instr{Op: rcx.OpSendPBMessage, Args: []int{rcx.SrcConst, code}, Comment: "send again"},
		rcx.Instr{Op: rcx.OpSetVar, Args: []int{varTries, rcx.SrcConst, 0}},
		rcx.Instr{Op: rcx.OpEndIf},
		rcx.Instr{Op: rcx.OpEndWhile},
		rcx.Instr{Op: rcx.OpSetVar, Args: []int{varTries, rcx.SrcConst, 0}},
		rcx.Instr{Op: rcx.OpClearPBMessage},
	)
}
