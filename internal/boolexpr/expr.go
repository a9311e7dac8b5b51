// Package boolexpr defines the abstract syntax of subscriptions: arbitrary
// Boolean combinations (AND, OR, NOT) of predicates.
//
// The paper's central argument contrasts two treatments of such expressions:
// evaluating them directly (the non-canonical engine, internal/core) versus
// rewriting them into disjunctive normal form and registering each disjunct
// as a conjunctive subscription (the counting baselines, internal/counting).
// This package supplies both: the AST with direct evaluation, and the
// NNF/DNF transformations with their (worst-case exponential) size costs.
package boolexpr

import (
	"strings"

	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// Expr is a node of a subscription expression tree. Expressions are
// immutable once built; all transformations return new trees.
type Expr interface {
	// Eval evaluates the expression against an event by evaluating each
	// predicate leaf on the event's attributes.
	Eval(e event.Event) bool

	// EvalWith evaluates the expression under an arbitrary truth assignment
	// for predicates. It is the reference semantics that the encoded-tree
	// evaluator (internal/subtree) and the DNF rewrite must preserve.
	EvalWith(assign func(p predicate.P) bool) bool

	// String renders the expression in subscription-language syntax; the
	// output re-parses to an equivalent expression (internal/sublang).
	String() string

	// precedence for printing: Or < And < Not/Leaf.
	prec() int
}

// Leaf wraps a single predicate.
type Leaf struct {
	Pred predicate.P
}

// And is an n-ary conjunction. Binary operators are treated as n-ary ones,
// compacting subscription trees (paper §3.1).
type And struct {
	Xs []Expr
}

// Or is an n-ary disjunction.
type Or struct {
	Xs []Expr
}

// Not negates its operand.
type Not struct {
	X Expr
}

// NewLeaf builds a predicate leaf.
func NewLeaf(p predicate.P) Leaf { return Leaf{Pred: p} }

// Pred is shorthand for NewLeaf(predicate.New(attr, op, operand)).
func Pred(attr string, op predicate.Op, operand any) Leaf {
	return Leaf{Pred: predicate.New(attr, op, operand)}
}

// NewAnd conjoins the operands, flattening nested Ands.
func NewAnd(xs ...Expr) Expr {
	flat := make([]Expr, 0, len(xs))
	for _, x := range xs {
		if a, ok := x.(And); ok {
			flat = append(flat, a.Xs...)
		} else {
			flat = append(flat, x)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return And{Xs: flat}
}

// NewOr disjoins the operands, flattening nested Ors.
func NewOr(xs ...Expr) Expr {
	flat := make([]Expr, 0, len(xs))
	for _, x := range xs {
		if o, ok := x.(Or); ok {
			flat = append(flat, o.Xs...)
		} else {
			flat = append(flat, x)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Or{Xs: flat}
}

// NewNot negates x, collapsing double negation.
func NewNot(x Expr) Expr {
	if n, ok := x.(Not); ok {
		return n.X
	}
	return Not{X: x}
}

func (l Leaf) Eval(e event.Event) bool { return l.Pred.Eval(e) }
func (a And) Eval(e event.Event) bool {
	for _, x := range a.Xs {
		if !x.Eval(e) {
			return false
		}
	}
	return true
}
func (o Or) Eval(e event.Event) bool {
	for _, x := range o.Xs {
		if x.Eval(e) {
			return true
		}
	}
	return false
}
func (n Not) Eval(e event.Event) bool { return !n.X.Eval(e) }

func (l Leaf) EvalWith(assign func(predicate.P) bool) bool { return assign(l.Pred) }
func (a And) EvalWith(assign func(predicate.P) bool) bool {
	for _, x := range a.Xs {
		if !x.EvalWith(assign) {
			return false
		}
	}
	return true
}
func (o Or) EvalWith(assign func(predicate.P) bool) bool {
	for _, x := range o.Xs {
		if x.EvalWith(assign) {
			return true
		}
	}
	return false
}
func (n Not) EvalWith(assign func(predicate.P) bool) bool { return !n.X.EvalWith(assign) }

func (Leaf) prec() int { return 3 }
func (Not) prec() int  { return 2 }
func (And) prec() int  { return 1 }
func (Or) prec() int   { return 0 }

func (l Leaf) String() string { return l.Pred.String() }

func (a And) String() string { return joinChildren(a.Xs, " and ", a.prec()) }
func (o Or) String() string  { return joinChildren(o.Xs, " or ", o.prec()) }

func (n Not) String() string {
	if n.X.prec() < n.prec() {
		return "not (" + n.X.String() + ")"
	}
	return "not " + n.X.String()
}

func joinChildren(xs []Expr, sep string, prec int) string {
	if len(xs) == 0 {
		// Empty And is vacuously true, empty Or vacuously false; neither is
		// constructible through the public constructors but render something
		// parseable-adjacent for debugging.
		return "()"
	}
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteString(sep)
		}
		if x.prec() < prec {
			b.WriteByte('(')
			b.WriteString(x.String())
			b.WriteByte(')')
		} else {
			b.WriteString(x.String())
		}
	}
	return b.String()
}

// Walk calls fn for every node in depth-first pre-order until fn returns
// false.
func Walk(e Expr, fn func(Expr) bool) {
	walk(e, fn)
}

func walk(e Expr, fn func(Expr) bool) bool {
	if !fn(e) {
		return false
	}
	switch t := e.(type) {
	case And:
		for _, x := range t.Xs {
			if !walk(x, fn) {
				return false
			}
		}
	case Or:
		for _, x := range t.Xs {
			if !walk(x, fn) {
				return false
			}
		}
	case Not:
		return walk(t.X, fn)
	}
	return true
}

// Leaves returns every predicate occurrence in the expression, left to
// right. Duplicates are preserved.
func Leaves(e Expr) []predicate.P {
	var ps []predicate.P
	Walk(e, func(x Expr) bool {
		if l, ok := x.(Leaf); ok {
			ps = append(ps, l.Pred)
		}
		return true
	})
	return ps
}

// Size returns the number of nodes in the expression tree.
func Size(e Expr) int {
	n := 0
	Walk(e, func(Expr) bool { n++; return true })
	return n
}

// Depth returns the height of the expression tree (a single leaf has
// depth 1).
func Depth(e Expr) int {
	switch t := e.(type) {
	case Leaf:
		return 1
	case Not:
		return 1 + Depth(t.X)
	case And:
		return 1 + maxDepth(t.Xs)
	case Or:
		return 1 + maxDepth(t.Xs)
	default:
		return 0
	}
}

func maxDepth(xs []Expr) int {
	m := 0
	for _, x := range xs {
		if d := Depth(x); d > m {
			m = d
		}
	}
	return m
}

// Equal reports structural equality (same shape, same predicates in the
// same order).
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Leaf:
		y, ok := b.(Leaf)
		return ok && samePred(x.Pred, y.Pred)
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.X, y.X)
	case And:
		y, ok := b.(And)
		return ok && equalSlices(x.Xs, y.Xs)
	case Or:
		y, ok := b.(Or)
		return ok && equalSlices(x.Xs, y.Xs)
	default:
		return false
	}
}

func equalSlices(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func samePred(a, b predicate.P) bool { return a.Key() == b.Key() }

// Clone returns a deep copy of the expression.
func Clone(e Expr) Expr {
	switch t := e.(type) {
	case Leaf:
		return t
	case Not:
		return Not{X: Clone(t.X)}
	case And:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = Clone(x)
		}
		return And{Xs: xs}
	case Or:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = Clone(x)
		}
		return Or{Xs: xs}
	default:
		return nil
	}
}

// ZeroSatisfiable reports whether the expression evaluates to true under the
// all-false assignment (no predicate fulfilled). Subscriptions with this
// property can match events that fulfil none of their predicates — e.g.
// `not (a = 1)` — so candidate-driven matchers must always evaluate them
// (see internal/core).
func ZeroSatisfiable(e Expr) bool {
	return e.EvalWith(func(predicate.P) bool { return false })
}
