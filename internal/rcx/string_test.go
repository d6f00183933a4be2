package rcx_test

import (
	"fmt"
	"strings"
	"testing"

	"guidedta/internal/core"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/synth"
)

// referenceString is the straightforward fmt-based rendering Program.String
// must reproduce byte for byte.
func referenceString(p rcx.Program) string {
	var sb strings.Builder
	indent := 0
	for _, in := range p {
		if in.Op == rcx.OpEndWhile || in.Op == rcx.OpEndIf {
			indent--
		}
		if indent < 0 {
			indent = 0
		}
		parts := make([]string, len(in.Args))
		for k, a := range in.Args {
			parts[k] = fmt.Sprintf("%d", a)
		}
		s := rcx.Instr{Op: in.Op}.String() // the bare opcode name
		if len(parts) > 0 {
			s += " " + strings.Join(parts, ", ")
		}
		if in.Comment != "" {
			s = fmt.Sprintf("%-34s ' %s", s, in.Comment)
		}
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(s)
		sb.WriteByte('\n')
		if in.Op == rcx.OpWhile || in.Op == rcx.OpIf {
			indent++
		}
	}
	return sb.String()
}

// TestProgramStringMatchesReference renders a synthesized 3-batch control
// program (every opcode the synthesizer emits, nested blocks, commented
// lines) and a hand-written one (negative operands, a commented line wider
// than the comment column, unbalanced block ends) and compares both with
// the reference rendering.
func TestProgramStringMatchesReference(t *testing.T) {
	res, err := core.Synthesize(plant.Config{Qualities: plant.CycleQualities(3), Guides: plant.AllGuides},
		mc.DefaultOptions(mc.DFS), synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edge := rcx.Program{
		{Op: rcx.OpEndIf},
		{Op: rcx.OpWhile, Args: []int{rcx.SrcMessage, -1000000, rcx.RelNE, rcx.SrcConst, 1000000}, Comment: "wide"},
		{Op: rcx.OpSumVar, Args: []int{0, rcx.SrcConst, -1}, Comment: "countdown"},
		{Op: rcx.OpEndWhile},
		{Op: rcx.OpHalt},
	}
	for name, prog := range map[string]rcx.Program{"3-batch plant": res.Program, "edge cases": edge} {
		if got, want := prog.String(), referenceString(prog); got != want {
			t.Errorf("%s: Program.String differs from the reference rendering:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
