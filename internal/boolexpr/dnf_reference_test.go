package boolexpr

import (
	"math"
	"math/rand"
	"testing"

	"noncanon/internal/predicate"
)

// referenceDedup is ToDNF's earlier conjunction dedup, kept as the
// reference: it keys every literal on its printed predicate and a
// conjunction on its sorted, joined literal strings.
func referenceDedup(d DNF) DNF {
	if len(d) < 2 {
		return d
	}
	seen := make(map[string]bool, len(d))
	out := d[:0]
	for _, c := range d {
		keys := make([]string, len(c))
		for i, l := range c {
			keys[i] = l.Pred.String()
			if l.Neg {
				keys[i] = "!" + keys[i]
			}
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		k := ""
		for _, s := range keys {
			k += s + "\x00"
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

// keySetDedup is the oracle: a conjunction is dropped iff an earlier kept
// one has the same set of (predicate.Key, sign) literals, by pairwise scan.
func keySetDedup(d DNF) DNF {
	var out DNF
	for _, c := range d {
		dup := false
		for _, k := range out {
			if sameLiteralSet(c, k) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

func sameLiteralSet(a, b Conjunction) bool {
	has := func(c Conjunction, l Literal) bool {
		for _, m := range c {
			if m.Neg == l.Neg && m.Pred.Key() == l.Pred.Key() {
				return true
			}
		}
		return false
	}
	for _, l := range a {
		if !has(b, l) {
			return false
		}
	}
	for _, l := range b {
		if !has(a, l) {
			return false
		}
	}
	return true
}

// sameDNF reports whether two DNFs list the same conjunctions, literal for
// literal, in the same order.
func sameDNF(a, b DNF) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, l := range a[i] {
			m := b[i][j]
			if l.Neg != m.Neg || l.Pred.Key() != m.Pred.Key() || l.Pred.String() != m.Pred.String() {
				return false
			}
		}
	}
	return true
}

// TestToDNFMatchesReference: over 20 000 seeded random trees, ToDNF (keyed
// on predicate.Key) gives the output of the earlier String keying, and on
// every tree it equals the pairwise key-set oracle. A second pool mixes in
// operands that print apart but intern together (-0.0 and 0, 3 and 3.0);
// there only the oracle is binding, and the trees where the printed keying
// kept a duplicate are counted.
func TestToDNFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfgs := []RandomConfig{
		{MaxDepth: 4, MaxFanout: 3, AllowNot: true, NegatableOnly: true, Attrs: []string{"a"}, Domain: 2},
		{MaxDepth: 4, MaxFanout: 3, AllowNot: true, Attrs: []string{"a", "b"}, Domain: 2},
		{MaxDepth: 3, MaxFanout: 4, NegatableOnly: true, Attrs: []string{"a", "b"}, Domain: 1},
	}
	const trees = 20000
	deduped := 0
	for i := 0; i < trees; i++ {
		e := RandomExpr(rng, cfgs[i%len(cfgs)])
		raw := dnfOf(ToNNF(e))
		got, err := ToDNF(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceDedup(append(DNF(nil), raw...))
		if !sameDNF(got, want) {
			t.Fatalf("tree %d %s:\n got %v\nwant %v", i, e, got, want)
		}
		if oracle := keySetDedup(raw); !sameDNF(got, oracle) {
			t.Fatalf("tree %d %s: got %v, key-set oracle %v", i, e, got, oracle)
		}
		if len(got) < len(raw) {
			deduped++
		}
	}
	if deduped < trees/10 {
		t.Fatalf("only %d of %d trees had a duplicate conjunction: the comparison is vacuous", deduped, trees)
	}

	// Operands that print apart but are one registry predicate.
	twins := []any{0, math.Copysign(0, -1), 3, 3.0}
	disagree := 0
	for i := 0; i < 2000; i++ {
		leaf := func() Expr {
			return Pred([]string{"a", "b"}[rng.Intn(2)], predicate.Gt, twins[rng.Intn(len(twins))])
		}
		e := NewOr(NewAnd(leaf(), leaf()), NewAnd(leaf(), leaf()), leaf())
		raw := dnfOf(ToNNF(e))
		got, err := ToDNF(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if oracle := keySetDedup(raw); !sameDNF(got, oracle) {
			t.Fatalf("twin tree %d %s: got %v, key-set oracle %v", i, e, got, oracle)
		}
		if !sameDNF(got, referenceDedup(append(DNF(nil), raw...))) {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatal("no twin tree separated the two keyings")
	}
	t.Logf("%d of %d trees deduplicated; the printed keying kept a key-duplicate conjunction on %d of 2000 twin trees", deduped, trees, disagree)
}
