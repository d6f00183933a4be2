package plant

import "guidedta/internal/expr"

// The builder makes every guard, update and goal as an expr tree instead of
// formatting source text and parsing it back. Each tree has the shape
// expr.Parse gives the source it replaces: + and && associate to the left,
// named constants keep their Name, and 0-2 stays a subtraction. The model
// therefore prints, and hashes, byte for byte as the source did; each site
// keeps that source in a comment.

// array holds the element nodes a[0], a[1], ... of a declared int array,
// built once so that every tree shares them.
type array []cell

// cell is an assignable expression: a scalar variable or an array element.
type cell interface {
	expr.Expr
	Addr(env []int32) int
}

// smallNums are the literals 0..15, boxed once and shared by every tree
// (expression nodes are immutable values).
var smallNums = func() (t [16]expr.Expr) {
	for i := range t {
		t[i] = expr.Const{Val: int32(i)}
	}
	return t
}()

// num is the integer literal i.
func num(i int) expr.Expr {
	if i >= 0 && i < len(smallNums) {
		return smallNums[i]
	}
	return expr.Const{Val: int32(i)}
}

func bin(op expr.Op, l, r expr.Expr) expr.Expr { return expr.Binary{Op: op, L: l, R: r} }

func eq(l, r expr.Expr) expr.Expr  { return bin(expr.OpEq, l, r) }
func ne(l, r expr.Expr) expr.Expr  { return bin(expr.OpNe, l, r) }
func lt(l, r expr.Expr) expr.Expr  { return bin(expr.OpLt, l, r) }
func le(l, r expr.Expr) expr.Expr  { return bin(expr.OpLe, l, r) }
func gt(l, r expr.Expr) expr.Expr  { return bin(expr.OpGt, l, r) }
func ge(l, r expr.Expr) expr.Expr  { return bin(expr.OpGe, l, r) }
func and(l, r expr.Expr) expr.Expr { return bin(expr.OpAnd, l, r) }
func or(l, r expr.Expr) expr.Expr  { return bin(expr.OpOr, l, r) }
func add(l, r expr.Expr) expr.Expr { return bin(expr.OpAdd, l, r) }
func sub(l, r expr.Expr) expr.Expr { return bin(expr.OpSub, l, r) }

// not is !x.
func not(x expr.Expr) expr.Expr { return expr.Unary{Op: expr.OpNot, X: x} }

// cond is (c ? t : f).
func cond(c, t, f expr.Expr) expr.Expr { return expr.Cond{C: c, T: t, F: f} }

// flag is (c ? 1 : 0).
func flag(c expr.Expr) expr.Expr { return cond(c, num(1), num(0)) }

// set is the update lhs := rhs.
func set(lhs cell, rhs expr.Expr) expr.Assign { return expr.Assign{LHS: lhs, RHS: rhs} }

// incr is the update v := v + 1.
func incr(v cell) expr.Assign { return set(v, add(v, num(1))) }
