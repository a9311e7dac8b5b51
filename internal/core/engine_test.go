package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
)

func newEngine(opts Options) (*Engine, *predicate.Registry, *index.Index) {
	reg := predicate.NewRegistry()
	idx := index.New()
	return New(reg, idx, opts), reg, idx
}

func fig1() boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.NewOr(
			boolexpr.Pred("a", predicate.Gt, 10),
			boolexpr.Pred("a", predicate.Le, 5),
			boolexpr.Pred("b", predicate.Eq, 1),
		),
		boolexpr.NewOr(
			boolexpr.Pred("c", predicate.Le, 20),
			boolexpr.Pred("c", predicate.Eq, 30),
			boolexpr.Pred("d", predicate.Eq, 5),
		),
	)
}

func subIDs(xs ...matcher.SubID) map[matcher.SubID]bool {
	m := make(map[matcher.SubID]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func sameSubs(got []matcher.SubID, want map[matcher.SubID]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, id := range got {
		if !want[id] {
			return false
		}
	}
	return true
}

func TestSubscribeAndMatchFig1(t *testing.T) {
	e, _, _ := newEngine(Options{})
	id, err := e.Subscribe(fig1())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		ev   event.Event
		want bool
	}{
		{event.New().Set("a", 11).Set("c", 15), true},
		{event.New().Set("a", 3).Set("c", 30), true},
		{event.New().Set("b", 1).Set("d", 5), true},
		{event.New().Set("a", 7).Set("c", 15), false},
		{event.New().Set("a", 11).Set("c", 25), false},
		{event.New(), false},
	}
	for i, tt := range tests {
		got := e.Match(tt.ev)
		if tt.want != sameSubs(got, subIDs(id)) && tt.want {
			t.Errorf("case %d: Match(%s) = %v, want [%d]", i, tt.ev, got, id)
		}
		if !tt.want && len(got) != 0 {
			t.Errorf("case %d: Match(%s) = %v, want none", i, tt.ev, got)
		}
	}
	if e.NumSubscriptions() != 1 || e.NumUnits() != 1 {
		t.Errorf("NumSubscriptions=%d NumUnits=%d", e.NumSubscriptions(), e.NumUnits())
	}
}

func TestMultipleSubscriptionsSharedPredicates(t *testing.T) {
	e, reg, _ := newEngine(Options{})
	// Two subscriptions share the predicate price > 100.
	s1, err := e.Subscribe(boolexpr.NewAnd(
		boolexpr.Pred("price", predicate.Gt, 100),
		boolexpr.Pred("sym", predicate.Eq, "A"),
	))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Subscribe(boolexpr.NewAnd(
		boolexpr.Pred("price", predicate.Gt, 100),
		boolexpr.Pred("sym", predicate.Eq, "B"),
	))
	if err != nil {
		t.Fatal(err)
	}
	// Shared predicate interned once: 3 distinct predicates.
	if reg.Len() != 3 {
		t.Errorf("registry has %d predicates, want 3 (sharing)", reg.Len())
	}
	got := e.Match(event.New().Set("price", 150).Set("sym", "A"))
	if !sameSubs(got, subIDs(s1)) {
		t.Errorf("Match = %v, want [%d]", got, s1)
	}
	got = e.Match(event.New().Set("price", 150).Set("sym", "B"))
	if !sameSubs(got, subIDs(s2)) {
		t.Errorf("Match = %v, want [%d]", got, s2)
	}
	if got = e.Match(event.New().Set("price", 50).Set("sym", "A")); len(got) != 0 {
		t.Errorf("Match = %v, want none", got)
	}
}

func TestUnsubscribe(t *testing.T) {
	e, reg, idx := newEngine(Options{})
	id1, _ := e.Subscribe(fig1())
	id2, _ := e.Subscribe(boolexpr.Pred("a", predicate.Gt, 10)) // shares a>10

	if err := e.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	if e.NumSubscriptions() != 1 {
		t.Errorf("NumSubscriptions = %d", e.NumSubscriptions())
	}
	// Shared predicate survives, the other five died.
	if reg.Len() != 1 {
		t.Errorf("registry has %d predicates, want 1", reg.Len())
	}
	if idx.NumPredicates() != 1 {
		t.Errorf("index has %d predicates, want 1", idx.NumPredicates())
	}
	// Former fig1 match now only matches id2 via a>10.
	got := e.Match(event.New().Set("a", 11).Set("c", 15))
	if !sameSubs(got, subIDs(id2)) {
		t.Errorf("Match = %v, want [%d]", got, id2)
	}
	// Double unsubscribe fails.
	if err := e.Unsubscribe(id1); !errors.Is(err, matcher.ErrUnknownSubscription) {
		t.Errorf("double Unsubscribe err = %v", err)
	}
	if err := e.Unsubscribe(9999); !errors.Is(err, matcher.ErrUnknownSubscription) {
		t.Errorf("unknown Unsubscribe err = %v", err)
	}
	// Unsubscribing the last subscription empties everything.
	if err := e.Unsubscribe(id2); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 || idx.NumPredicates() != 0 || e.NumSubscriptions() != 0 {
		t.Error("engine not empty after last unsubscribe")
	}
}

func TestSubIDReuse(t *testing.T) {
	e, _, _ := newEngine(Options{})
	id1, _ := e.Subscribe(boolexpr.Pred("a", predicate.Eq, 1))
	if err := e.Unsubscribe(id1); err != nil {
		t.Fatal(err)
	}
	id2, _ := e.Subscribe(boolexpr.Pred("b", predicate.Eq, 2))
	if id2 != id1 {
		t.Errorf("freed SubID %d not reused, got %d", id1, id2)
	}
	got := e.Match(event.New().Set("b", 2))
	if !sameSubs(got, subIDs(id2)) {
		t.Errorf("Match = %v", got)
	}
}

func TestZeroSatisfiableNotSubscription(t *testing.T) {
	// `not a = 1` matches events where a is absent or different — even
	// though no predicate of the subscription is fulfilled (no candidacy).
	e, _, _ := newEngine(Options{})
	id, err := e.Subscribe(boolexpr.NewNot(boolexpr.Pred("a", predicate.Eq, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Match(event.New().Set("b", 7)); !sameSubs(got, subIDs(id)) {
		t.Errorf("absent attribute: Match = %v, want [%d]", got, id)
	}
	if got := e.Match(event.New().Set("a", 2)); !sameSubs(got, subIDs(id)) {
		t.Errorf("different value: Match = %v, want [%d]", got, id)
	}
	if got := e.Match(event.New().Set("a", 1)); len(got) != 0 {
		t.Errorf("matching value: Match = %v, want none", got)
	}
	// Mixed with a positive subscription; both matched once, no duplicates.
	id2, _ := e.Subscribe(boolexpr.Pred("a", predicate.Eq, 2))
	got := e.Match(event.New().Set("a", 2))
	if !sameSubs(got, subIDs(id, id2)) {
		t.Errorf("mixed: Match = %v, want [%d %d]", got, id, id2)
	}
	// Unsubscribing the zero-sat subscription clears the always list.
	if err := e.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	got = e.Match(event.New().Set("a", 2))
	if !sameSubs(got, subIDs(id2)) {
		t.Errorf("after unsub: Match = %v, want [%d]", got, id2)
	}
}

func TestMatchPredicatesPhaseTwoOnly(t *testing.T) {
	e, reg, _ := newEngine(Options{})
	id, _ := e.Subscribe(fig1())
	// Find the IDs of a>10 and c<=20 via the registry by re-interning
	// (interning an existing predicate returns its ID).
	aGt10 := reg.Intern(predicate.New("a", predicate.Gt, 10))
	cLe20 := reg.Intern(predicate.New("c", predicate.Le, 20))
	reg.Release(aGt10)
	reg.Release(cLe20)

	got := e.MatchPredicates([]predicate.ID{aGt10, cLe20})
	if !sameSubs(got, subIDs(id)) {
		t.Errorf("MatchPredicates = %v, want [%d]", got, id)
	}
	if got = e.MatchPredicates([]predicate.ID{aGt10}); len(got) != 0 {
		t.Errorf("half-fulfilled = %v, want none", got)
	}
	if got = e.MatchPredicates(nil); len(got) != 0 {
		t.Errorf("empty fulfilled = %v, want none", got)
	}
}

func TestExprRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {Encoding: subtree.CompactEncoding}, {Simplify: true}} {
		e, _, _ := newEngine(opts)
		orig := fig1()
		id, err := e.Subscribe(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.Expr(id)
		if err != nil {
			t.Fatal(err)
		}
		if !boolexpr.Equal(orig, back) {
			t.Errorf("opts %+v: Expr() = %s, want %s", opts, back, orig)
		}
	}
	e, _, _ := newEngine(Options{})
	if _, err := e.Expr(42); !errors.Is(err, matcher.ErrUnknownSubscription) {
		t.Errorf("Expr(42) err = %v", err)
	}
}

func TestSubscribeErrors(t *testing.T) {
	e, reg, idx := newEngine(Options{})
	if _, err := e.Subscribe(nil); err == nil {
		t.Error("nil expression must fail")
	}
	// 256 children exceed the paper encoding's child-count byte; the
	// rollback must release all interned predicates.
	xs := make([]boolexpr.Expr, 256)
	for i := range xs {
		xs[i] = boolexpr.Pred("a", predicate.Eq, i)
	}
	if _, err := e.Subscribe(boolexpr.And{Xs: xs}); !errors.Is(err, subtree.ErrTooManyChildren) {
		t.Fatalf("err = %v, want ErrTooManyChildren", err)
	}
	if reg.Len() != 0 {
		t.Errorf("rollback leaked %d predicates", reg.Len())
	}
	if idx.NumPredicates() != 0 {
		t.Errorf("rollback leaked %d index entries", idx.NumPredicates())
	}
	// The same subscription compiles fine with the compact encoding.
	e2, _, _ := newEngine(Options{Encoding: subtree.CompactEncoding})
	if _, err := e2.Subscribe(boolexpr.And{Xs: xs}); err != nil {
		t.Errorf("compact encoding should accept 256 children: %v", err)
	}
}

func TestEngineName(t *testing.T) {
	e, _, _ := newEngine(Options{})
	if e.Name() != "non-canonical" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestMemBytesGrows(t *testing.T) {
	e, _, _ := newEngine(Options{})
	base := e.MemBytes()
	var ids []matcher.SubID
	for i := 0; i < 100; i++ {
		id, err := e.Subscribe(boolexpr.NewAnd(
			boolexpr.Pred("a", predicate.Gt, i),
			boolexpr.Pred("b", predicate.Lt, i),
		))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	grown := e.MemBytes()
	if grown <= base {
		t.Errorf("MemBytes did not grow: %d -> %d", base, grown)
	}
	for _, id := range ids {
		if err := e.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if final := e.MemBytes(); final >= grown {
		t.Errorf("MemBytes did not shrink after unsubscribe: %d -> %d", grown, final)
	}
}

// TestMatchAgainstASTProperty cross-checks the full engine pipeline against
// direct AST evaluation on randomly generated subscriptions and events.
func TestMatchAgainstASTProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := boolexpr.RandomConfig{MaxDepth: 4, MaxFanout: 3, AllowNot: true, Domain: 30}
	for _, opts := range []Options{
		{},
		{Reorder: true},
		{Encoding: subtree.CompactEncoding},
		{Simplify: true},
		{PaperAssociation: true},
		{PaperAssociation: true, Encoding: subtree.CompactEncoding},
	} {
		e, _, _ := newEngine(opts)
		exprs := make(map[matcher.SubID]boolexpr.Expr)
		for i := 0; i < 80; i++ {
			x := boolexpr.RandomExpr(rng, cfg)
			id, err := e.Subscribe(x)
			if err != nil {
				t.Fatal(err)
			}
			exprs[id] = x
		}
		// Unsubscribe a third.
		n := 0
		for id := range exprs {
			if n%3 == 0 {
				if err := e.Unsubscribe(id); err != nil {
					t.Fatal(err)
				}
				delete(exprs, id)
			}
			n++
		}
		for trial := 0; trial < 200; trial++ {
			ev := randomEvent(rng)
			want := map[matcher.SubID]bool{}
			for id, x := range exprs {
				if x.Eval(ev) {
					want[id] = true
				}
			}
			got := e.Match(ev)
			if !sameSubs(got, want) {
				t.Fatalf("opts %+v: Match(%s) = %v, want %v", opts, ev, got, want)
			}
		}
	}
}

func randomEvent(rng *rand.Rand) event.Event {
	ev := event.New()
	for i := 0; i < 8; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		attr := "a" + string(rune('0'+i))
		switch rng.Intn(4) {
		case 0:
			ev = ev.Set(attr, "s"+fmt.Sprint(rng.Intn(30)))
		case 1:
			ev = ev.Set(attr, float64(rng.Intn(30))+0.5)
		default:
			ev = ev.Set(attr, rng.Intn(30))
		}
	}
	return ev
}

func TestInstrumentedMatch(t *testing.T) {
	e, reg, _ := newEngine(Options{})
	if _, err := e.Subscribe(fig1()); err != nil {
		t.Fatal(err)
	}
	aGt10 := reg.Intern(predicate.New("a", predicate.Gt, 10))
	cLe20 := reg.Intern(predicate.New("c", predicate.Le, 20))
	reg.Release(aGt10)
	reg.Release(cLe20)

	leaves, evals := e.InstrumentedMatch([]predicate.ID{aGt10, cLe20})
	if evals != 1 {
		t.Errorf("evals = %d, want 1 candidate", evals)
	}
	// Short-circuit: first OR succeeds at leaf 1, second OR at leaf 1 → 2.
	if leaves != 2 {
		t.Errorf("leaves = %d, want 2 (short-circuit)", leaves)
	}
	// Unknown predicate IDs are tolerated (registered by another engine).
	if _, evals := e.InstrumentedMatch([]predicate.ID{9999}); evals != 0 {
		t.Errorf("unknown pred gave %d evals", evals)
	}
	// Consistency with MatchPredicates on the same fulfilled set.
	if got := e.MatchPredicates([]predicate.ID{aGt10, cLe20}); len(got) != 1 {
		t.Errorf("MatchPredicates = %v", got)
	}
}

func TestTreeBytes(t *testing.T) {
	e, _, _ := newEngine(Options{})
	if e.TreeBytes() != 0 {
		t.Errorf("empty TreeBytes = %d", e.TreeBytes())
	}
	id, _ := e.Subscribe(fig1())
	// Paper layout: fig1 encodes to 53 bytes.
	if got := e.TreeBytes(); got != 53 {
		t.Errorf("TreeBytes = %d, want 53", got)
	}
	id2, _ := e.Subscribe(boolexpr.Pred("z", predicate.Eq, 1)) // 1 header + 5 leaf
	if got := e.TreeBytes(); got != 59 {
		t.Errorf("TreeBytes = %d, want 59", got)
	}
	if err := e.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if got := e.TreeBytes(); got != 6 {
		t.Errorf("TreeBytes after unsub = %d, want 6", got)
	}
	_ = id2
}

func TestEpochWrapAround(t *testing.T) {
	// Force the epoch to wrap and verify stale stamps cannot cause false
	// candidates, false matches, or — for verdicts phase two resolved
	// false on demand — false misses.
	e, reg, _ := newEngine(Options{})
	id, _ := e.Subscribe(boolexpr.NewAnd(
		boolexpr.Pred("a", predicate.Eq, 1),
		boolexpr.Pred("b", predicate.Eq, 2),
	))
	aEq1 := reg.Intern(predicate.New("a", predicate.Eq, 1))
	bEq2 := reg.Intern(predicate.New("b", predicate.Eq, 2))
	reg.Release(aEq1)
	reg.Release(bEq2)

	// Epochs are private to each pooled scratch, so drive one scratch
	// directly to control its counter.
	sc := &matchScratch{eng: e}
	match := func(fulfilled []predicate.ID) []matcher.SubID {
		e.mu.RLock()
		defer e.mu.RUnlock()
		e.syncScratchRLocked(sc)
		return e.matchScratched(sc, fulfilled)
	}
	matchEvent := func(ev event.Event) []matcher.SubID {
		e.mu.RLock()
		defer e.mu.RUnlock()
		e.syncScratchRLocked(sc)
		return e.evalEvent(sc, ev, e.prepareEvent(sc, ev), nil)
	}

	// Seed stamps at the current epoch, then jump the counter to just below
	// the wrap point.
	if got := match([]predicate.ID{aEq1}); len(got) != 0 {
		t.Fatalf("half-match = %v", got)
	}
	sc.epoch = resolvedFalse - 2
	// Two calls: the second wraps → clears tables → epoch 1. The old
	// stamps (from the call above) equal small epochs only if not cleared;
	// after clearing they are 0 and epoch is 1, so no false positives.
	if got := match([]predicate.ID{bEq2}); len(got) != 0 {
		t.Fatalf("pre-wrap half-match = %v", got)
	}
	if got := match([]predicate.ID{aEq1}); len(got) != 0 {
		t.Fatalf("post-wrap half-match = %v (stale stamp leaked)", got)
	}
	got := match([]predicate.ID{aEq1, bEq2})
	if !sameSubs(got, subIDs(id)) {
		t.Fatalf("full match after wrap = %v, want [%d]", got, id)
	}

	// Resolved verdicts: b = 2 is outside the access clause, so phase two
	// evaluates it on demand. Resolve it false at epoch 1, wrap, and ask
	// again at the new epoch 1 with an event that fulfils it.
	sc.epoch = 0
	if got := matchEvent(event.New().Set("a", 1).Set("b", 3)); len(got) != 0 || sc.epoch != 1 {
		t.Fatalf("b = 3: matched %v at epoch %d, want none at 1", got, sc.epoch)
	}
	if i := bEq2 - 1; sc.predMark[i] != 1|resolvedFalse {
		t.Fatalf("b = 2 stamped %#x, want resolved false at epoch 1", sc.predMark[i])
	}
	sc.epoch = resolvedFalse - 1
	if got := matchEvent(event.New().Set("a", 1).Set("b", 2)); !sameSubs(got, subIDs(id)) || sc.epoch != 1 {
		t.Fatalf("after wrap: matched %v at epoch %d, want [%d] at 1 (stale false verdict leaked)", got, sc.epoch, id)
	}
}

// TestConcurrentAccess exercises the engine under parallel subscribe,
// unsubscribe and match; run with -race.
func TestConcurrentAccess(t *testing.T) {
	e, _, _ := newEngine(Options{})
	rngSeed := int64(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []matcher.SubID
			for i := 0; i < 300; i++ {
				switch rng.Intn(3) {
				case 0:
					id, err := e.Subscribe(boolexpr.NewAnd(
						boolexpr.Pred("a", predicate.Gt, rng.Intn(50)),
						boolexpr.Pred("b", predicate.Lt, rng.Intn(50)),
					))
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				case 1:
					if len(mine) > 0 {
						id := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if err := e.Unsubscribe(id); err != nil {
							t.Error(err)
							return
						}
					}
				default:
					e.Match(event.New().Set("a", rng.Intn(50)).Set("b", rng.Intn(50)))
				}
			}
		}(rngSeed + int64(w))
	}
	wg.Wait()
}
