// Package expr implements the integer expression and assignment language
// used in guards and updates of timed-automata models: scalar variables,
// arrays, the usual arithmetic/relational/logical operators, and the C
// conditional operator. This is the fragment of UPPAAL's expression
// language the paper's plant model needs (including the guide expressions
// such as `next := (posi[0]+...<=posii[0]+... ? m1 : m4)`).
//
// Expressions are evaluated over a flat store of int32 cells described by a
// Table (the model's variable declarations). Boolean results are encoded as
// 0/1; any non-zero value is truthy.
package expr

import (
	"fmt"
	"strconv"
)

// Op identifies a binary or unary operator.
type Op int

// Binary and unary operators. The numeric values are internal.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot // unary
	OpNeg // unary
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNot: "!", OpNeg: "-",
}

// String returns the operator's source form ("" for an unknown operator).
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return ""
	}
	return opNames[o]
}

// Expr is an integer expression evaluated against a store.
type Expr interface {
	// Eval returns the expression's value over env. It panics with a
	// *RuntimeError on division by zero or array index out of range,
	// which indicate a malformed model.
	Eval(env []int32) int32
	// String renders the expression in parseable source form.
	String() string
}

// RuntimeError reports a model-level evaluation fault.
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return "expr: " + e.Msg }

func rtErrf(format string, args ...any) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Const is a literal or named integer constant.
type Const struct {
	Val  int32
	Name string // non-empty for named constants; used only for printing
}

// Eval implements Expr.
func (c Const) Eval([]int32) int32 { return c.Val }

// String implements Expr.
func (c Const) String() string { return string(Append(nil, c)) }

// Var reads the scalar variable stored at a fixed store offset.
type Var struct {
	Off  int
	Name string
}

// Eval implements Expr.
func (v Var) Eval(env []int32) int32 { return env[v.Off] }

// String implements Expr.
func (v Var) String() string { return v.Name }

// Index reads an array element; the element offset is Base + Idx value,
// bounds-checked against Size.
type Index struct {
	Base int
	Size int
	Idx  Expr
	Name string
}

// Eval implements Expr.
func (ix Index) Eval(env []int32) int32 {
	i := ix.Idx.Eval(env)
	if i < 0 || int(i) >= ix.Size {
		panic(rtErrf("index %d out of range for %s[%d]", i, ix.Name, ix.Size))
	}
	return env[ix.Base+int(i)]
}

// String implements Expr.
func (ix Index) String() string { return string(Append(nil, ix)) }

// Unary applies OpNot or OpNeg.
type Unary struct {
	Op Op
	X  Expr
}

// Eval implements Expr.
func (u Unary) Eval(env []int32) int32 {
	x := u.X.Eval(env)
	switch u.Op {
	case OpNot:
		if x == 0 {
			return 1
		}
		return 0
	case OpNeg:
		return -x
	default:
		panic(rtErrf("bad unary op %v", u.Op))
	}
}

// String implements Expr.
func (u Unary) String() string { return string(Append(nil, u)) }

// Binary applies a binary operator. Logical && and || short-circuit.
type Binary struct {
	Op   Op
	L, R Expr
}

// Eval implements Expr.
func (b Binary) Eval(env []int32) int32 {
	switch b.Op {
	case OpAnd:
		if b.L.Eval(env) == 0 {
			return 0
		}
		return boolVal(b.R.Eval(env) != 0)
	case OpOr:
		if b.L.Eval(env) != 0 {
			return 1
		}
		return boolVal(b.R.Eval(env) != 0)
	}
	l, r := b.L.Eval(env), b.R.Eval(env)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			panic(rtErrf("division by zero"))
		}
		return l / r
	case OpMod:
		if r == 0 {
			panic(rtErrf("modulo by zero"))
		}
		return l % r
	case OpEq:
		return boolVal(l == r)
	case OpNe:
		return boolVal(l != r)
	case OpLt:
		return boolVal(l < r)
	case OpLe:
		return boolVal(l <= r)
	case OpGt:
		return boolVal(l > r)
	case OpGe:
		return boolVal(l >= r)
	default:
		panic(rtErrf("bad binary op %v", b.Op))
	}
}

// String implements Expr.
func (b Binary) String() string { return string(Append(nil, b)) }

// Cond is the conditional operator c ? t : f.
type Cond struct {
	C, T, F Expr
}

// Eval implements Expr.
func (c Cond) Eval(env []int32) int32 {
	if c.C.Eval(env) != 0 {
		return c.T.Eval(env)
	}
	return c.F.Eval(env)
}

// String implements Expr.
func (c Cond) String() string { return string(Append(nil, c)) }

func boolVal(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Append appends the source form of e to dst and returns the extended
// slice. It is the one printer behind every String method: each node type
// is rendered in place, with no intermediate strings, so callers that
// print many expressions (the model serializer and hash) allocate only
// when dst grows.
func Append(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case Const:
		if e.Name != "" {
			return append(dst, e.Name...)
		}
		return strconv.AppendInt(dst, int64(e.Val), 10)
	case Var:
		return append(dst, e.Name...)
	case Index:
		dst = append(dst, e.Name...)
		dst = append(dst, '[')
		dst = Append(dst, e.Idx)
		return append(dst, ']')
	case Unary:
		dst = append(dst, e.Op.String()...)
		return paren(dst, e.X)
	case Binary:
		dst = paren(dst, e.L)
		dst = append(dst, ' ')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		return paren(dst, e.R)
	case Cond:
		dst = append(dst, '(')
		dst = Append(dst, e.C)
		dst = append(dst, " ? "...)
		dst = Append(dst, e.T)
		dst = append(dst, " : "...)
		dst = Append(dst, e.F)
		return append(dst, ')')
	default:
		return append(dst, e.String()...)
	}
}

// paren appends e, wrapping compound subexpressions in parentheses so that
// the printed form re-parses with identical structure regardless of
// precedence.
func paren(dst []byte, e Expr) []byte {
	switch e.(type) {
	case Const, Var, Index, Cond:
		return Append(dst, e)
	default:
		dst = append(dst, '(')
		dst = Append(dst, e)
		return append(dst, ')')
	}
}

// Truthy reports whether the expression evaluates non-zero over env.
func Truthy(e Expr, env []int32) bool {
	if e == nil {
		return true
	}
	return e.Eval(env) != 0
}

// LValue is an assignable location: a scalar variable or array element.
type LValue interface {
	// Addr resolves the store offset of the location under env.
	Addr(env []int32) int
	String() string
}

// Addr implements LValue for scalars.
func (v Var) Addr([]int32) int { return v.Off }

// Addr implements LValue for array elements.
func (ix Index) Addr(env []int32) int {
	i := ix.Idx.Eval(env)
	if i < 0 || int(i) >= ix.Size {
		panic(rtErrf("index %d out of range for %s[%d] in assignment", i, ix.Name, ix.Size))
	}
	return ix.Base + int(i)
}

// Assign is the update statement "lhs := rhs".
type Assign struct {
	LHS LValue
	RHS Expr
}

// Exec evaluates RHS and stores it; UPPAAL semantics evaluate assignment
// lists left to right, which callers get by calling Exec in order.
func (a Assign) Exec(env []int32) {
	off := a.LHS.Addr(env)
	env[off] = a.RHS.Eval(env)
}

// String implements fmt.Stringer.
func (a Assign) String() string { return string(a.appendTo(nil)) }

func (a Assign) appendTo(dst []byte) []byte {
	if lhs, ok := a.LHS.(Expr); ok {
		dst = Append(dst, lhs)
	} else {
		dst = append(dst, a.LHS.String()...)
	}
	dst = append(dst, " := "...)
	return Append(dst, a.RHS)
}

// ExecAll runs a list of assignments in order.
func ExecAll(as []Assign, env []int32) {
	for i := range as {
		as[i].Exec(env)
	}
}

// FormatAssigns renders an assignment list as "a := 1, b[i] := 2".
func FormatAssigns(as []Assign) string { return string(AppendAssigns(nil, as)) }

// AppendAssigns appends the FormatAssigns form of as to dst and returns
// the extended slice.
func AppendAssigns(dst []byte, as []Assign) []byte {
	for i, a := range as {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.appendTo(dst)
	}
	return dst
}
