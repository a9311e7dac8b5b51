//go:build !race

// Allocation budgets for the //nclint:hotpath-annotated matching spine.
// The race detector's instrumentation changes allocation counts, so these
// run only in unraced builds; CI's dedicated non-race test step covers
// them. The budgets are the dynamic half of the hot-path gate — the
// static half is nclint's hotpath rule — and EXPERIMENTS.md records why
// each budget is what it is.

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
)

// warmedEngine returns an engine with nsubs overlap-heavy subscriptions
// and a matching event, with the scratch pool and growth tables warmed by
// one throwaway match.
func warmedEngine(tb testing.TB, nsubs int) (*Engine, event.Event) {
	tb.Helper()
	e, _, _ := newEngine(Options{})
	for i := 0; i < nsubs; i++ {
		expr := boolexpr.NewAnd(
			boolexpr.Pred("sym", predicate.Eq, fmt.Sprintf("S%d", i%4)),
			boolexpr.Pred("price", predicate.Gt, i%50),
		)
		if _, err := e.Subscribe(expr); err != nil {
			tb.Fatal(err)
		}
	}
	ev := event.New().Set("sym", "S1").Set("price", 99)
	if len(e.Match(ev)) == 0 {
		tb.Fatal("warm-up event matches nothing; budget would be vacuous")
	}
	return e, ev
}

// TestMatchAllocBudget: after warm-up, one Match performs exactly one
// allocation — the caller-owned result slice, presized to the candidate
// count in matchScratched. Scratch state (predicate marks, candidate
// buffer, the index's output buffer) is pooled and reused.
func TestMatchAllocBudget(t *testing.T) {
	e, ev := warmedEngine(t, 200)
	const budget = 1
	avg := testing.AllocsPerRun(200, func() {
		if len(e.Match(ev)) == 0 {
			t.Fatal("event stopped matching")
		}
	})
	if avg > budget {
		t.Errorf("Match allocates %.1f per run, budget %d", avg, budget)
	}
}

// TestMatchIntoAllocBudget: the append-style spine is allocation-free
// once the caller recycles its buffer — this is the broker's publish
// path, and the floor the whole zero-copy refactor exists to reach.
func TestMatchIntoAllocBudget(t *testing.T) {
	e, ev := warmedEngine(t, 200)
	buf := e.MatchInto(ev, nil) // warm the caller buffer
	if len(buf) == 0 {
		t.Fatal("event stopped matching")
	}
	avg := testing.AllocsPerRun(200, func() {
		buf = e.MatchInto(ev, buf[:0])
		if len(buf) == 0 {
			t.Fatal("event stopped matching")
		}
	})
	if avg > 0 {
		t.Errorf("MatchInto allocates %.1f per run, budget 0", avg)
	}
}

// TestMatchPredicatesAllocBudget: phase two alone has the same single-
// allocation profile as Match.
func TestMatchPredicatesAllocBudget(t *testing.T) {
	e, reg, idx := newEngine(Options{})
	for i := 0; i < 100; i++ {
		expr := boolexpr.Pred("price", predicate.Gt, i%10)
		if _, err := e.Subscribe(expr); err != nil {
			t.Fatal(err)
		}
	}
	ev := event.New().Set("price", 50)
	fulfilled := idx.Match(ev, nil)
	if len(fulfilled) == 0 {
		t.Fatal("no fulfilled predicates; budget would be vacuous")
	}
	_ = reg
	if len(e.MatchPredicates(fulfilled)) == 0 {
		t.Fatal("warm-up matches nothing")
	}
	const budget = 1
	avg := testing.AllocsPerRun(200, func() {
		if len(e.MatchPredicates(fulfilled)) == 0 {
			t.Fatal("predicates stopped matching")
		}
	})
	if avg > budget {
		t.Errorf("MatchPredicates allocates %.1f per run, budget %d", avg, budget)
	}
}

// TestAccessAllocBudgets: choosing an access clause costs no per-subscribe
// garbage — a Subscribe/Unsubscribe pair allocates no more than under the
// paper's listing — and MatchInto stays allocation-free under both.
func TestAccessAllocBudgets(t *testing.T) {
	filters, nextEvent := selectiveShape(rand.New(rand.NewSource(6)), 800)
	extra := filters[0]
	allocs := map[string]float64{}
	for _, l := range listings {
		e, _, _ := newEngine(Options{PaperAssociation: l.paper})
		for _, f := range filters[1:] {
			if _, err := e.Subscribe(f); err != nil {
				t.Fatal(err)
			}
		}
		allocs[l.name] = testing.AllocsPerRun(200, func() {
			id, err := e.Subscribe(extra)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		})
		var buf []matcher.SubID
		evs := make([]event.Event, 64)
		for i := range evs {
			evs[i] = nextEvent()
			buf = e.MatchInto(evs[i], buf[:0]) // warm the scratch and buffer
		}
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			buf = e.MatchInto(evs[i%len(evs)], buf[:0])
			i++
		}); avg > 0 {
			t.Errorf("%s listing: MatchInto allocates %.1f per run, budget 0", l.name, avg)
		}
	}
	if allocs["access"] > allocs["paper"] {
		t.Errorf("Subscribe+Unsubscribe allocates %.1f under the access listing, %.1f under the paper's",
			allocs["access"], allocs["paper"])
	}
	t.Logf("Subscribe+Unsubscribe allocations: access %.1f, paper %.1f", allocs["access"], allocs["paper"])
}
