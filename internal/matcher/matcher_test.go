package matcher_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
)

// engines returns every Matcher implementation over its own fresh
// registry/index pair.
func engines() map[string]matcher.Matcher {
	newNC := func(opts core.Options) matcher.Matcher {
		return core.New(predicate.NewRegistry(), index.New(), opts)
	}
	newCnt := func(alg counting.Algorithm) matcher.Matcher {
		return counting.New(predicate.NewRegistry(), index.New(), counting.Options{
			Algorithm: alg, SupportUnsubscribe: true,
		})
	}
	return map[string]matcher.Matcher{
		"non-canonical":    newNC(core.Options{}),
		"nc-paper-assoc":   newNC(core.Options{PaperAssociation: true}),
		"counting":         newCnt(counting.Classic),
		"counting-variant": newCnt(counting.Variant),
		"dag-aggregated":   newDAGEngine(),
	}
}

func TestErrorValues(t *testing.T) {
	if matcher.ErrUnknownSubscription == nil || matcher.ErrUnsubscribeUnsupported == nil {
		t.Fatal("contract errors must be non-nil sentinels")
	}
	if errors.Is(matcher.ErrUnknownSubscription, matcher.ErrUnsubscribeUnsupported) {
		t.Fatal("sentinel errors must be distinct")
	}
	// Engines wrap the sentinels with %w, so errors.Is must see through.
	wrapped := fmt.Errorf("core: %w: 17", matcher.ErrUnknownSubscription)
	if !errors.Is(wrapped, matcher.ErrUnknownSubscription) {
		t.Fatal("wrapped sentinel not recognised by errors.Is")
	}
}

func TestUnsubscribeUnknownIsSentinel(t *testing.T) {
	for name, m := range engines() {
		if err := m.Unsubscribe(12345); !errors.Is(err, matcher.ErrUnknownSubscription) {
			t.Errorf("%s: Unsubscribe(unknown) = %v, want ErrUnknownSubscription", name, err)
		}
	}
}

func TestUnsubscribeUnsupportedIsSentinel(t *testing.T) {
	m := counting.New(predicate.NewRegistry(), index.New(), counting.Options{
		Algorithm: counting.Classic, SupportUnsubscribe: false,
	})
	id, err := m.Subscribe(boolexpr.Pred("a", predicate.Eq, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(id); !errors.Is(err, matcher.ErrUnsubscribeUnsupported) {
		t.Errorf("Unsubscribe = %v, want ErrUnsubscribeUnsupported", err)
	}
}

// TestMatchReturnsFreshSlice pins the documented aliasing contract: the
// slice returned by Match must not be overwritten by a later call.
func TestMatchReturnsFreshSlice(t *testing.T) {
	for name, m := range engines() {
		id1, err := m.Subscribe(boolexpr.Pred("a", predicate.Eq, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Subscribe(boolexpr.Pred("a", predicate.Eq, 2)); err != nil {
			t.Fatal(err)
		}
		first := m.Match(event.New().Set("a", 1))
		second := m.Match(event.New().Set("a", 2))
		if len(first) != 1 || first[0] != id1 {
			t.Errorf("%s: first match corrupted after second call: %v (second %v)", name, first, second)
		}
	}
}

// TestCountsAndName pins the bookkeeping part of the contract.
func TestCountsAndName(t *testing.T) {
	for name, m := range engines() {
		if m.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		if m.NumSubscriptions() != 0 || m.NumUnits() != 0 {
			t.Errorf("%s: fresh engine not empty", name)
		}
		base := m.MemBytes()
		id, err := m.Subscribe(boolexpr.NewOr(
			boolexpr.Pred("a", predicate.Eq, 1),
			boolexpr.Pred("b", predicate.Eq, 2),
		))
		if err != nil {
			t.Fatal(err)
		}
		if m.NumSubscriptions() != 1 {
			t.Errorf("%s: NumSubscriptions = %d, want 1", name, m.NumSubscriptions())
		}
		if m.NumUnits() < m.NumSubscriptions() {
			t.Errorf("%s: NumUnits %d < NumSubscriptions %d", name, m.NumUnits(), m.NumSubscriptions())
		}
		if m.MemBytes() <= base {
			t.Errorf("%s: MemBytes did not grow on Subscribe", name)
		}
		if err := m.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		if m.NumSubscriptions() != 0 {
			t.Errorf("%s: NumSubscriptions after Unsubscribe = %d", name, m.NumSubscriptions())
		}
	}
}

// sortedIDs returns a sorted copy for order-insensitive comparison.
func sortedIDs(ids []matcher.SubID) []matcher.SubID {
	out := append([]matcher.SubID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []matcher.SubID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCountingMatchPredicatesAlg covers the counting engine's explicit-
// algorithm entry point, which the suite previously skipped: on the same
// registered state, MatchPredicatesAlg(Classic) and
// MatchPredicatesAlg(Variant) must agree with each other and with
// MatchPredicates of an engine configured for that algorithm, regardless
// of which algorithm the receiving engine was configured with.
func TestCountingMatchPredicatesAlg(t *testing.T) {
	newCnt := func(alg counting.Algorithm) *counting.Engine {
		return counting.New(predicate.NewRegistry(), index.New(), counting.Options{
			Algorithm: alg, SupportUnsubscribe: true,
		})
	}
	classic, variant := newCnt(counting.Classic), newCnt(counting.Variant)
	rng := rand.New(rand.NewSource(23))
	cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3}
	for i := 0; i < 80; i++ {
		x := boolexpr.RandomExpr(rng, cfg)
		if _, err := classic.Subscribe(x); err != nil {
			t.Fatal(err)
		}
		if _, err := variant.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	// Both engines registered identical workloads against fresh registries,
	// so predicate IDs coincide and a fulfilled set means the same thing to
	// both.
	anyMatch := false
	for trial := 0; trial < 50; trial++ {
		var fulfilled []predicate.ID
		for id := 1; id <= 300; id++ {
			if rng.Intn(6) == 0 {
				fulfilled = append(fulfilled, predicate.ID(id))
			}
		}
		want := sortedIDs(classic.MatchPredicates(fulfilled))
		anyMatch = anyMatch || len(want) > 0
		cases := map[string][]matcher.SubID{
			"classic.Alg(Classic)": classic.MatchPredicatesAlg(counting.Classic, fulfilled),
			"classic.Alg(Variant)": classic.MatchPredicatesAlg(counting.Variant, fulfilled),
			"variant.Alg(Classic)": variant.MatchPredicatesAlg(counting.Classic, fulfilled),
			"variant.Alg(Variant)": variant.MatchPredicatesAlg(counting.Variant, fulfilled),
			"variant.configured":   variant.MatchPredicates(fulfilled),
		}
		for label, got := range cases {
			if !equalIDs(sortedIDs(got), want) {
				t.Fatalf("trial %d: %s = %v, want %v", trial, label, got, want)
			}
		}
	}
	if !anyMatch {
		t.Fatal("no trial produced matches; test is vacuous")
	}
}
