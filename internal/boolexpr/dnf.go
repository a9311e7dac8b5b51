package boolexpr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"noncanon/internal/predicate"
)

// Errors returned by the canonicalisation pipeline.
var (
	// ErrNotNegatable marks literals whose negation has no complementary
	// operator (the substring family and exists). The canonical baselines,
	// which require positive conjunctive predicates, cannot register such
	// subscriptions; the non-canonical engine handles them natively — one of
	// the paper's expressiveness arguments.
	ErrNotNegatable = errors.New("boolexpr: predicate operator not negatable")

	// ErrDNFTooLarge is returned when the DNF would exceed the configured
	// disjunct limit. DNFs are worst-case exponential in the original
	// expression size (paper §1, §2).
	ErrDNFTooLarge = errors.New("boolexpr: DNF exceeds disjunct limit")

	// ErrNegativeLiteral is returned by engines that only support positive
	// conjunctive subscriptions when handed a DNF containing negated
	// literals.
	ErrNegativeLiteral = errors.New("boolexpr: negative literal in conjunction")
)

// Literal is a possibly-negated predicate occurrence. Negation is kept
// explicit rather than folded into the operator: rewriting ¬(a > 5) as
// a ≤ 5 silently changes semantics for events where a is absent or not
// numeric (the complement is false there, the true negation is true).
type Literal struct {
	Pred predicate.P
	Neg  bool
}

// Eval evaluates the literal under a truth assignment of its predicate.
func (l Literal) Eval(assign func(predicate.P) bool) bool {
	v := assign(l.Pred)
	if l.Neg {
		return !v
	}
	return v
}

// String renders the literal.
func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Pred.String()
	}
	return l.Pred.String()
}

// Conjunction is one DNF disjunct: literals understood as their conjunction.
// Canonical matchers accept only all-positive conjunctions.
type Conjunction []Literal

// AllPositive reports whether the conjunction has no negated literal.
func (c Conjunction) AllPositive() bool {
	for _, l := range c {
		if l.Neg {
			return false
		}
	}
	return true
}

// Preds returns the predicates of the conjunction, in order.
func (c Conjunction) Preds() []predicate.P {
	ps := make([]predicate.P, len(c))
	for i, l := range c {
		ps[i] = l.Pred
	}
	return ps
}

// DNF is a disjunction of conjunctions.
type DNF []Conjunction

// ToNNF rewrites the expression into negation normal form: NOT nodes are
// pushed down through AND/OR by De Morgan's laws until they sit directly
// above predicate leaves. The rewrite is exactly semantics-preserving under
// any truth assignment (no operator complementation is performed).
func ToNNF(e Expr) Expr {
	return toNNF(e, false)
}

func toNNF(e Expr, negated bool) Expr {
	switch t := e.(type) {
	case Leaf:
		if !negated {
			return t
		}
		return Not{X: t}
	case Not:
		return toNNF(t.X, !negated)
	case And:
		xs := nnfChildren(t.Xs, negated)
		if negated {
			return NewOr(xs...)
		}
		return NewAnd(xs...)
	case Or:
		xs := nnfChildren(t.Xs, negated)
		if negated {
			return NewAnd(xs...)
		}
		return NewOr(xs...)
	default:
		return e
	}
}

func nnfChildren(xs []Expr, negated bool) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = toNNF(x, negated)
	}
	return out
}

// DNFSize computes the number of disjuncts the DNF of e will have before
// deduplication, without materialising it. The count saturates at
// math.MaxInt. This is the paper's "exponential in size (worst case)"
// quantity used for the memory analysis (experiment M1).
func DNFSize(e Expr) int {
	return dnfSize(ToNNF(e))
}

func dnfSize(e Expr) int {
	switch t := e.(type) {
	case Leaf:
		return 1
	case Not: // literal: Not sits directly above a leaf in NNF
		return 1
	case Or:
		n := 0
		for _, x := range t.Xs {
			n = satAdd(n, dnfSize(x))
		}
		return n
	case And:
		n := 1
		for _, x := range t.Xs {
			n = satMul(n, dnfSize(x))
		}
		return n
	default:
		return 0
	}
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// ToDNF converts an arbitrary expression into disjunctive normal form over
// literals. The transformation is exactly what canonical pub/sub matchers
// require (paper §2): each resulting Conjunction is registered as a separate
// conjunctive subscription.
//
// maxDisjuncts bounds the blow-up; pass 0 for no limit. Duplicate literals
// inside one conjunction are merged, conjunctions containing a literal and
// its negation are dropped as unsatisfiable, and duplicate conjunctions are
// removed.
func ToDNF(e Expr, maxDisjuncts int) (DNF, error) {
	nnf := ToNNF(e)
	if maxDisjuncts > 0 {
		if n := dnfSize(nnf); n > maxDisjuncts {
			return nil, fmt.Errorf("%w: %d > %d", ErrDNFTooLarge, n, maxDisjuncts)
		}
	}
	return dedupConjunctions(dnfOf(nnf)), nil
}

func dnfOf(e Expr) DNF {
	switch t := e.(type) {
	case Leaf:
		return DNF{Conjunction{{Pred: t.Pred}}}
	case Not:
		// NNF guarantees the operand is a leaf.
		if l, ok := t.X.(Leaf); ok {
			return DNF{Conjunction{{Pred: l.Pred, Neg: true}}}
		}
		return dnfOf(toNNF(t, false))
	case Or:
		var out DNF
		for _, x := range t.Xs {
			out = append(out, dnfOf(x)...)
		}
		return out
	case And:
		out := DNF{Conjunction{}}
		for _, x := range t.Xs {
			sub := dnfOf(x)
			next := make(DNF, 0, len(out)*len(sub))
			for _, a := range out {
				for _, b := range sub {
					if m, ok := mergeConjunction(a, b); ok {
						next = append(next, m)
					}
				}
			}
			out = next
		}
		return out
	default:
		return nil
	}
}

// mergeConjunction concatenates two conjunctions, dropping duplicate
// literals. ok=false marks an unsatisfiable result (contains p and ¬p).
func mergeConjunction(a, b Conjunction) (Conjunction, bool) {
	out := make(Conjunction, len(a), len(a)+len(b))
	copy(out, a)
	for _, l := range b {
		dup := false
		for _, m := range out {
			if samePred(l.Pred, m.Pred) {
				if l.Neg != m.Neg {
					return nil, false // p ∧ ¬p ≡ false
				}
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, true
}

// literalKey is a literal's identity: its predicate's registry identity
// (predicate.Key, as samePred compares) and its sign.
type literalKey struct {
	pred predicate.Key
	neg  bool
}

// dedupConjunctions drops every conjunction whose literal set an earlier one
// already has. Each distinct literal gets a small number, in order of first
// appearance, and a conjunction is keyed by its sorted numbers.
func dedupConjunctions(d DNF) DNF {
	if len(d) < 2 {
		return d
	}
	lits := make(map[literalKey]int)
	seen := make(map[string]bool, len(d))
	var ids []int
	var key []byte
	out := d[:0]
	for _, c := range d {
		ids = ids[:0]
		for _, l := range c {
			lk := literalKey{l.Pred.Key(), l.Neg}
			id, ok := lits[lk]
			if !ok {
				id = len(lits)
				lits[lk] = id
			}
			ids = append(ids, id)
		}
		// Insertion sort: conjunctions are small (paper: 3-5 predicates).
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		key = key[:0]
		for _, id := range ids {
			key = binary.AppendUvarint(key, uint64(id))
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, c)
	}
	return out
}

// Eval evaluates the DNF under a truth assignment: true iff some conjunction
// has all literals fulfilled. It is the reference semantics for the counting
// baselines.
func (d DNF) Eval(assign func(predicate.P) bool) bool {
	for _, c := range d {
		all := true
		for _, l := range c {
			if !l.Eval(assign) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Expr converts the DNF back into an expression tree (an Or of Ands with Not
// wrapped around negated literals). An empty DNF — an unsatisfiable
// expression — converts to nil.
func (d DNF) Expr() Expr {
	if len(d) == 0 {
		return nil
	}
	ors := make([]Expr, len(d))
	for i, c := range d {
		ands := make([]Expr, len(c))
		for j, l := range c {
			var x Expr = Leaf{Pred: l.Pred}
			if l.Neg {
				x = Not{X: x}
			}
			ands[j] = x
		}
		ors[i] = NewAnd(ands...)
	}
	return NewOr(ors...)
}

// NumPredicates returns the total literal occurrences across all disjuncts —
// the quantity that multiplies the counting algorithm's memory.
func (d DNF) NumPredicates() int {
	n := 0
	for _, c := range d {
		n += len(c)
	}
	return n
}

// AllPositive reports whether no conjunction contains a negated literal.
func (d DNF) AllPositive() bool {
	for _, c := range d {
		if !c.AllPositive() {
			return false
		}
	}
	return true
}

// complementOp returns the complementary operator, e.g. ¬(a < 5) ⇒ a ≥ 5.
func complementOp(op predicate.Op) (predicate.Op, bool) {
	switch op {
	case predicate.Eq:
		return predicate.Ne, true
	case predicate.Ne:
		return predicate.Eq, true
	case predicate.Lt:
		return predicate.Ge, true
	case predicate.Le:
		return predicate.Gt, true
	case predicate.Gt:
		return predicate.Le, true
	case predicate.Ge:
		return predicate.Lt, true
	default:
		return 0, false
	}
}

// ComplementLiterals rewrites every negated literal into a positive
// predicate with the complementary operator: ¬(a < 5) becomes a ≥ 5.
//
// CAUTION: this is the *strong* negation semantics. It differs from logical
// negation on events where the attribute is absent or of an incomparable
// type (both ¬(a<5) variants are then true logically, but a≥5 is false).
// It is only sound for workloads whose events always carry every referenced
// attribute with a comparable type — which holds for the paper's synthetic
// workloads. Literals whose operator has no complement yield
// ErrNotNegatable.
func ComplementLiterals(d DNF) (DNF, error) {
	out := make(DNF, len(d))
	for i, c := range d {
		nc := make(Conjunction, len(c))
		for j, l := range c {
			if !l.Neg {
				nc[j] = l
				continue
			}
			op, ok := complementOp(l.Pred.Op)
			if !ok {
				return nil, fmt.Errorf("%w: not (%s)", ErrNotNegatable, l.Pred)
			}
			nc[j] = Literal{Pred: predicate.P{Attr: l.Pred.Attr, Sym: l.Pred.Sym, Op: op, Operand: l.Pred.Operand}}
		}
		out[i] = nc
	}
	return out, nil
}
