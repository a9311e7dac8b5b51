package subtree

import (
	"slices"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

// TestConjunctsAndLeaves walks `(a and (b or not c)) and (d or a)` in both
// encodings: nested top-level Ands flatten into three conjuncts, each
// conjunct's leaves come back in encoding order with repeats, and
// EvalMarked on an empty mark table tells the zero-satisfiable conjunct
// apart.
func TestConjunctsAndLeaves(t *testing.T) {
	a := boolexpr.Pred("a", predicate.Eq, 1)
	b := boolexpr.Pred("b", predicate.Eq, 2)
	c := boolexpr.Pred("c", predicate.Eq, 3)
	d := boolexpr.Pred("d", predicate.Eq, 4)
	expr := boolexpr.And{Xs: []boolexpr.Expr{
		boolexpr.And{Xs: []boolexpr.Expr{a, boolexpr.Or{Xs: []boolexpr.Expr{b, boolexpr.Not{X: c}}}}},
		boolexpr.Or{Xs: []boolexpr.Expr{d, a}},
	}}
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		ti := newInterner()
		comp, err := Compile(expr, ti.intern, Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		id := func(x boolexpr.Expr) predicate.ID { return ti.ids[x.(boolexpr.Leaf).Pred.Key()] }
		offs := Conjuncts(comp.Code, nil)
		want := [][]predicate.ID{{id(a)}, {id(b), id(c)}, {id(d), id(a)}}
		if len(offs) != len(want) {
			t.Fatalf("%s: %d conjuncts, want %d", enc, len(offs), len(want))
		}
		for i, off := range offs {
			if got := AppendLeaves(comp.Code, off, nil); !slices.Equal(got, want[i]) {
				t.Errorf("%s: conjunct %d leaves %v, want %v", enc, i, got, want[i])
			}
			if zero := EvalMarked(comp.Code, off, nil, 1, nil); zero != (i == 1) {
				t.Errorf("%s: conjunct %d holds with nothing fulfilled = %v", enc, i, zero)
			}
		}
		if got := AppendLeaves(comp.Code, 1, nil); len(got) != 5 {
			t.Errorf("%s: whole tree has %d leaves, want 5", enc, len(got))
		}
		if n := len(Conjuncts(comp.Code[:0:0], nil)); n != 0 {
			t.Errorf("%s: empty code yields %d conjuncts", enc, n)
		}
	}
	ti := newInterner()
	orRoot, err := Compile(boolexpr.Or{Xs: []boolexpr.Expr{a, b}}, ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Conjuncts(orRoot.Code, nil)); n != 0 {
		t.Errorf("Or root yields %d conjuncts, want 0", n)
	}
}
