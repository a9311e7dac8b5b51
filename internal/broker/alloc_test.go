//go:build !race

// Allocation budgets for the //nclint:hotpath-annotated publish pipeline,
// the dynamic half of the hot-path gate (nclint's hotpath rule is the
// static half). Race instrumentation changes allocation counts, so these
// run only in unraced builds. EXPERIMENTS.md records the budgets.

package broker

import (
	"fmt"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
)

// warmedBroker returns a broker with nsubs no-op subscribers (some
// matching the returned event) that has already published once, so every
// pool and growth table is warm.
func warmedBroker(tb testing.TB, nsubs int) (*Broker, event.Event) {
	return warmedBrokerOpts(tb, Options{QueueSize: 4 * nsubs}, nsubs)
}

func warmedBrokerOpts(tb testing.TB, opts Options, nsubs int) (*Broker, event.Event) {
	tb.Helper()
	opts.QueueSize = 4 * nsubs
	b := New(opts)
	for i := 0; i < nsubs; i++ {
		expr := boolexpr.NewAnd(
			boolexpr.Pred("sym", predicate.Eq, fmt.Sprintf("S%d", i%4)),
			boolexpr.Pred("price", predicate.Gt, i%50),
		)
		if _, err := b.Subscribe(expr, func(event.Event) {}); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() { b.Close() })
	ev := event.New().Set("sym", "S1").Set("price", 99)
	n, err := b.Publish(ev)
	if err != nil {
		tb.Fatal(err)
	}
	if n == 0 {
		tb.Fatal("warm-up event matches nothing; budget would be vacuous")
	}
	return b, ev
}

// TestPublishAllocBudget: after warm-up a Publish performs at most one
// allocation. The match-result slice is pooled (matchBuf + MatchInto) and
// Retain on an owned event is free, so the budget is pure headroom for
// the runtime's occasional channel-send bookkeeping (sudog reuse makes
// steady-state sends allocation-free).
func TestPublishAllocBudget(t *testing.T) {
	b, ev := warmedBroker(t, 100)
	const budget = 1
	avg := testing.AllocsPerRun(200, func() {
		n, err := b.Publish(ev)
		if err != nil || n == 0 {
			t.Fatalf("publish: n=%d err=%v", n, err)
		}
	})
	if avg > budget {
		t.Errorf("Publish allocates %.1f per run, budget %d", avg, budget)
	}
}

// TestPublishBatchAllocBudget: a batch allocates only its counts slice,
// regardless of batch size: every event's matches go into one pooled
// buffer (MatchInto), so batching's amortisation promise holds at the
// allocator level too.
func TestPublishBatchAllocBudget(t *testing.T) {
	b, ev := warmedBroker(t, 100)
	const batch = 16
	evs := make([]event.Event, batch)
	for i := range evs {
		evs[i] = ev
	}
	if _, err := b.PublishBatch(evs); err != nil { // grow the pooled match buffer
		t.Fatal(err)
	}
	const budget = 1
	avg := testing.AllocsPerRun(100, func() {
		counts, err := b.PublishBatch(evs)
		if err != nil || len(counts) != batch {
			t.Fatalf("publish batch: counts=%d err=%v", len(counts), err)
		}
	})
	if avg > budget {
		t.Errorf("PublishBatch(%d) allocates %.1f per run, budget %d", batch, avg, budget)
	}
}

// TestPublishInstrumentedAllocBudget: turning on an exported metrics
// registry — counters, latency histograms, the trace-ready clock — must
// not add a single allocation to Publish. The obs increment path is
// atomic adds and time.Now, all allocation-free; this pins that metrics
// can never quietly reintroduce hot-path garbage.
func TestPublishInstrumentedAllocBudget(t *testing.T) {
	b, ev := warmedBrokerOpts(t, Options{Metrics: obs.NewRegistry()}, 100)
	const budget = 1 // identical to the un-instrumented budget
	avg := testing.AllocsPerRun(200, func() {
		n, err := b.Publish(ev)
		if err != nil || n == 0 {
			t.Fatalf("publish: n=%d err=%v", n, err)
		}
	})
	if avg > budget {
		t.Errorf("instrumented Publish allocates %.1f per run, budget %d", avg, budget)
	}
}

// TestPublishBatchInstrumentedAllocBudget mirrors the batch budget with
// metrics on: still 1.
func TestPublishBatchInstrumentedAllocBudget(t *testing.T) {
	b, ev := warmedBrokerOpts(t, Options{Metrics: obs.NewRegistry()}, 100)
	const batch = 16
	evs := make([]event.Event, batch)
	for i := range evs {
		evs[i] = ev
	}
	if _, err := b.PublishBatch(evs); err != nil { // grow the pooled match buffer
		t.Fatal(err)
	}
	const budget = 1 // identical to the un-instrumented budget
	avg := testing.AllocsPerRun(100, func() {
		counts, err := b.PublishBatch(evs)
		if err != nil || len(counts) != batch {
			t.Fatalf("publish batch: counts=%d err=%v", len(counts), err)
		}
	})
	if avg > budget {
		t.Errorf("instrumented PublishBatch(%d) allocates %.1f per run, budget %d", batch, avg, budget)
	}
}
