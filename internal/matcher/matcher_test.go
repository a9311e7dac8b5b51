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
	"noncanon/internal/shard"
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
		"sharded-1":        shard.New(shard.Options{Shards: 1}),
		"sharded-4":        shard.New(shard.Options{Shards: 4, Parallel: 2}),
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

// batchEvent draws a random event over the attribute pool a0..a5 with the
// value shapes the random expressions quantify over.
func batchEvent(rng *rand.Rand) event.Event {
	ev := event.New()
	for i := 0; i < 6; i++ {
		attr := fmt.Sprintf("a%d", i)
		switch rng.Intn(5) {
		case 0: // absent
		case 1:
			ev = ev.Set(attr, rng.Intn(50))
		case 2:
			ev = ev.Set(attr, float64(rng.Intn(50))+0.5)
		case 3:
			ev = ev.Set(attr, "s"+fmt.Sprint(rng.Intn(20)))
		default:
			ev = ev.Set(attr, rng.Intn(2) == 0)
		}
	}
	return ev
}

// TestMatchBatchConsistency pins the batch part of the contract: one
// MatchBatch pass returns exactly what N sequential Match calls return
// against the same store, for every engine. (The counting engines reject
// NOT, so the random workload stays within AND/OR.)
func TestMatchBatchConsistency(t *testing.T) {
	for name, m := range engines() {
		rng := rand.New(rand.NewSource(11))
		cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3}
		for i := 0; i < 60; i++ {
			if _, err := m.Subscribe(boolexpr.RandomExpr(rng, cfg)); err != nil {
				t.Fatalf("%s: subscribe %d: %v", name, i, err)
			}
		}
		evs := make([]event.Event, 32)
		for i := range evs {
			evs[i] = batchEvent(rng)
		}
		batch := m.MatchBatch(evs)
		if len(batch) != len(evs) {
			t.Fatalf("%s: MatchBatch returned %d results for %d events", name, len(batch), len(evs))
		}
		anyMatch := false
		for i, ev := range evs {
			single := m.Match(ev)
			if !equalIDs(sortedIDs(batch[i]), sortedIDs(single)) {
				t.Fatalf("%s: event %d diverged\n  batch:  %v\n  single: %v", name, i, batch[i], single)
			}
			anyMatch = anyMatch || len(single) > 0
		}
		if !anyMatch {
			t.Fatalf("%s: workload produced no matches at all; test is vacuous", name)
		}
		if got := m.MatchBatch(nil); len(got) != 0 {
			t.Errorf("%s: MatchBatch(nil) = %v, want empty", name, got)
		}
	}
}

// TestMatchBatchReturnsFreshSlices extends the aliasing contract to
// batches: neither a later MatchBatch nor a later Match may overwrite a
// previously returned batch result.
func TestMatchBatchReturnsFreshSlices(t *testing.T) {
	for name, m := range engines() {
		id1, err := m.Subscribe(boolexpr.Pred("a", predicate.Eq, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Subscribe(boolexpr.Pred("a", predicate.Eq, 2)); err != nil {
			t.Fatal(err)
		}
		first := m.MatchBatch([]event.Event{event.New().Set("a", 1)})
		m.MatchBatch([]event.Event{event.New().Set("a", 2)})
		m.Match(event.New().Set("a", 2))
		if len(first) != 1 || len(first[0]) != 1 || first[0][0] != id1 {
			t.Errorf("%s: first batch result corrupted by later calls: %v", name, first)
		}
	}
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
