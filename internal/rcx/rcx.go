// Package rcx implements the control-program target language: a small
// RCX-style byte-code (modeled on the LEGO MINDSTORMS RCX 2.0 SDK opcodes
// the paper's Figure 6 uses — SendPBMessage, SetVar, SumVar, While, If,
// Wait, ClearPBMessage, PlaySystemSound) together with an interpreter. The
// language deliberately has no procedure calls (the RCX code of the paper
// had to in-line everything) and communicates over an unreliable broadcast
// message port.
package rcx

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is an RCX opcode.
type Op int

// Opcodes.
const (
	OpPlaySound Op = iota
	OpSendPBMessage
	OpClearPBMessage
	OpSetVar
	OpSumVar
	OpWait
	OpWhile
	OpEndWhile
	OpIf
	OpEndIf
	OpHalt
)

var opNames = map[Op]string{
	OpPlaySound:      "PB.PlaySystemSound",
	OpSendPBMessage:  "PB.SendPBMessage",
	OpClearPBMessage: "PB.ClearPBMessage",
	OpSetVar:         "PB.SetVar",
	OpSumVar:         "PB.SumVar",
	OpWait:           "PB.Wait",
	OpWhile:          "PB.While",
	OpEndWhile:       "PB.EndWhile",
	OpIf:             "PB.If",
	OpEndIf:          "PB.EndIf",
	OpHalt:           "PB.Halt",
}

// Source types for operands (the RCX SDK encoding).
const (
	SrcVar     = 0  // variable slot
	SrcConst   = 2  // immediate constant
	SrcMessage = 15 // the last received port message
)

// Relational operators for While/If (the RCX SDK encoding).
const (
	RelGT = 0
	RelLT = 1
	RelEQ = 2
	RelNE = 3
)

var relNames = [4]string{">", "<", "==", "!="}

// Instr is one instruction. Operand meaning by opcode:
//
//	PlaySound sound
//	SendPBMessage srcType, value
//	SetVar var, srcType, value
//	SumVar var, srcType, value
//	Wait srcType, value            (value in ticks)
//	While src1,v1, rel, src2,v2
//	If    src1,v1, rel, src2,v2
type Instr struct {
	Op      Op
	Args    []int
	Comment string
}

// String renders the instruction in the paper's Figure 6 style.
func (i Instr) String() string {
	var sb strings.Builder
	i.writeTo(&sb)
	return sb.String()
}

// commentColumn is the width the opcode and operands are padded to before
// an instruction's comment.
const commentColumn = 34

// writeTo appends the instruction's String form to sb without building
// intermediate strings.
func (i Instr) writeTo(sb *strings.Builder) {
	start := sb.Len()
	sb.WriteString(opNames[i.Op])
	var num [20]byte
	for k, a := range i.Args {
		if k == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		sb.Write(strconv.AppendInt(num[:0], int64(a), 10))
	}
	if i.Comment != "" {
		for n := sb.Len() - start; n < commentColumn; n++ {
			sb.WriteByte(' ')
		}
		sb.WriteString(" ' ")
		sb.WriteString(i.Comment)
	}
}

// Program is an executable instruction sequence.
type Program []Instr

// bytesPerLine sizes Program.String's buffer up front: synthesized plant
// programs average about 31 bytes a line.
const bytesPerLine = 32

// String renders the whole program with nesting indentation.
func (p Program) String() string {
	var sb strings.Builder
	sb.Grow(len(p) * bytesPerLine)
	indent := 0
	for _, in := range p {
		if in.Op == OpEndWhile || in.Op == OpEndIf {
			indent--
		}
		if indent < 0 {
			indent = 0
		}
		for k := 0; k < indent; k++ {
			sb.WriteString("  ")
		}
		in.writeTo(&sb)
		sb.WriteByte('\n')
		if in.Op == OpWhile || in.Op == OpIf {
			indent++
		}
	}
	return sb.String()
}

// Validate checks that While/EndWhile and If/EndIf nest properly and that
// operand counts match opcodes.
func (p Program) Validate() error {
	var stack []Op
	argc := map[Op]int{
		OpPlaySound: 1, OpSendPBMessage: 2, OpClearPBMessage: 0,
		OpSetVar: 3, OpSumVar: 3, OpWait: 2,
		OpWhile: 5, OpEndWhile: 0, OpIf: 5, OpEndIf: 0, OpHalt: 0,
	}
	for idx, in := range p {
		want, ok := argc[in.Op]
		if !ok {
			return fmt.Errorf("rcx: instr %d: unknown opcode %d", idx, in.Op)
		}
		if len(in.Args) != want {
			return fmt.Errorf("rcx: instr %d: %s takes %d args, got %d", idx, opNames[in.Op], want, len(in.Args))
		}
		switch in.Op {
		case OpWhile, OpIf:
			stack = append(stack, in.Op)
		case OpEndWhile:
			if len(stack) == 0 || stack[len(stack)-1] != OpWhile {
				return fmt.Errorf("rcx: instr %d: EndWhile without While", idx)
			}
			stack = stack[:len(stack)-1]
		case OpEndIf:
			if len(stack) == 0 || stack[len(stack)-1] != OpIf {
				return fmt.Errorf("rcx: instr %d: EndIf without If", idx)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("rcx: unclosed %v blocks", len(stack))
	}
	return nil
}
