//go:build !race

// Allocation budgets for the //nclint:hotpath-annotated matching spine.
// The race detector's instrumentation changes allocation counts, so these
// run only in unraced builds; CI's dedicated non-race test step covers
// them. The budgets are the gate on the spine's allocations (the hotpath
// lint checks only map iteration), and EXPERIMENTS.md records why each
// budget is what it is.

package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
	"noncanon/internal/value"
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
// count in matchScratched — and none when phase one lists no candidate.
// Scratch state (predicate marks, candidate buffer, the index's output
// buffer) is pooled and reused.
func TestMatchAllocBudget(t *testing.T) {
	e, ev := warmedEngine(t, 200)
	for _, row := range []struct {
		name    string
		ev      event.Event
		budget  float64
		matches bool
	}{
		{"candidates", ev, 1, true},
		{"no candidate", event.New().Set("unsubscribed", 1), 0, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(200, func() {
				if got := len(e.Match(row.ev)) > 0; got != row.matches {
					t.Fatalf("event matches = %v, want %v", got, row.matches)
				}
			})
			if avg > row.budget {
				t.Errorf("Match allocates %.1f per run, budget %.0f", avg, row.budget)
			}
		})
	}
}

// TestMatchIntoAllocBudget: the append-style spine is allocation-free
// once the caller recycles its buffer — this is the broker's publish
// path, and the floor the whole zero-copy refactor exists to reach. Each
// row after the first runs matching code the others do not: the compact
// tree encoding in phase two, and every operator class of the predicate
// index, with event attributes that carry no interned symbol, in phase
// one.
func TestMatchIntoAllocBudget(t *testing.T) {
	for _, row := range []struct {
		name  string
		build func(testing.TB) (*Engine, []event.Event)
	}{
		{"overlap-heavy", func(tb testing.TB) (*Engine, []event.Event) {
			e, ev := warmedEngine(tb, 200)
			return e, []event.Event{ev}
		}},
		{"compact encoding", func(tb testing.TB) (*Engine, []event.Event) {
			filters, nextEvent := selectiveShape(rand.New(rand.NewSource(7)), 800)
			evs := make([]event.Event, 64)
			for i := range evs {
				evs[i] = nextEvent()
			}
			return subscribeAll(tb, Options{Encoding: subtree.CompactEncoding}, filters), evs
		}},
		{"every operator class", func(tb testing.TB) (*Engine, []event.Event) {
			filters, evs := operatorShape()
			return subscribeAll(tb, Options{}, filters), evs
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e, evs := row.build(t)
			var buf []matcher.SubID
			matched := 0
			for _, ev := range evs { // warm the scratch and the caller buffer
				if buf = e.MatchInto(ev, buf[:0]); len(buf) > 0 {
					matched++
				}
			}
			if matched == 0 {
				t.Fatal("no event matches; budget would be vacuous")
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				buf = e.MatchInto(evs[i%len(evs)], buf[:0])
				i++
			})
			if avg > 0 {
				t.Errorf("MatchInto allocates %.1f per run, budget 0", avg)
			}
		})
	}
}

// subscribeAll returns an engine holding filters.
func subscribeAll(tb testing.TB, opts Options, filters []boolexpr.Expr) *Engine {
	tb.Helper()
	e, _, _ := newEngine(opts)
	for _, f := range filters {
		if _, err := e.Subscribe(f); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// operatorShape returns one single-leaf filter per operator class of the
// predicate index — numeric, string and boolean operators, the substring
// family, a residual predicate and presence — and events that fulfil
// each of them: numeric (a NaN among them), string and boolean values,
// and attributes whose interned symbol the event does not carry, one
// named by a subscription and one named by none.
func operatorShape() ([]boolexpr.Expr, []event.Event) {
	var filters []boolexpr.Expr
	for _, p := range []struct {
		attr    string
		op      predicate.Op
		operand any
	}{
		{"n", predicate.Eq, 5}, {"n", predicate.Ne, 5}, {"n", predicate.Lt, 10},
		{"n", predicate.Le, 10}, {"n", predicate.Gt, 1}, {"n", predicate.Ge, 5},
		{"s", predicate.Eq, "m"}, {"s", predicate.Ne, "m"}, {"s", predicate.Lt, "z"},
		{"s", predicate.Le, "m"}, {"s", predicate.Gt, "a"}, {"s", predicate.Ge, "m"},
		{"s", predicate.Prefix, "ab"}, {"s", predicate.Suffix, "yz"}, {"s", predicate.Contains, "bc"},
		{"b", predicate.Eq, true}, {"b", predicate.Ne, false},
		{"r", predicate.Lt, true}, // ordering booleans: a residual predicate
		{"x", predicate.Exists, nil},
		{"late", predicate.Eq, 1},
	} {
		filters = append(filters, boolexpr.Pred(p.attr, p.op, p.operand))
	}
	symless := event.FromAttrs([]event.Attr{
		{Name: "late", Val: value.Of(1)},
		{Name: "operatorShape-unsubscribed", Val: value.Of(1)},
	})
	return filters, []event.Event{
		event.New().Set("n", 5),
		event.New().Set("n", 7),
		event.New().Set("n", math.NaN()),
		event.New().Set("s", "abcxyz"),
		event.New().Set("s", "m"),
		event.New().Set("b", true),
		event.New().Set("r", false),
		event.New().Set("x", 1),
		symless,
	}
}

// TestMatchPredicatesAllocBudget: phase two alone has the same profile as
// Match — one allocation when there are candidates, none without — also
// when a fulfilled ID comes from another engine sharing the registry.
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
	other := New(reg, index.New(), Options{})
	if _, err := other.Subscribe(boolexpr.Pred("volume", predicate.Gt, 1)); err != nil {
		t.Fatal(err)
	}
	foreign := reg.Intern(predicate.New("volume", predicate.Gt, 1))
	reg.Release(foreign)
	for _, row := range []struct {
		name      string
		fulfilled []predicate.ID
		budget    float64
	}{
		{"candidates", fulfilled, 1},
		{"no candidate", nil, 0},
		{"ID of another engine", append(slices.Clone(fulfilled), foreign), 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := len(e.MatchPredicates(row.fulfilled)) // warm-up
			if (want > 0) != (row.budget > 0) {
				t.Fatalf("warm-up matches %d", want)
			}
			avg := testing.AllocsPerRun(200, func() {
				if len(e.MatchPredicates(row.fulfilled)) != want {
					t.Fatal("match set changed")
				}
			})
			if avg > row.budget {
				t.Errorf("MatchPredicates allocates %.1f per run, budget %.0f", avg, row.budget)
			}
		})
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
