//go:build !race

// Allocation budgets for the //nclint:hotpath-annotated publish pipeline:
// the gate on its allocations. Race instrumentation changes allocation
// counts, so these run only in unraced builds. EXPERIMENTS.md records the
// budgets.

package broker

import (
	"fmt"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
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
// steady-state sends allocation-free). The second row adds a handler sink
// that reclaims its delivered prefix because its handler runs one event
// behind.
func TestPublishAllocBudget(t *testing.T) {
	for _, row := range []struct {
		name   string
		behind bool // add a subscriber whose handler waits for each step
		budget float64
	}{
		{"no-op handlers", false, 1},
		{"handler one event behind", true, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			b, ev := warmedBroker(t, 100)
			step := func() {}
			if row.behind {
				gate := make(chan struct{})
				t.Cleanup(func() { close(gate) }) // runs before b.Close
				if _, err := b.Subscribe(boolexpr.Pred("sym", predicate.Eq, "S1"), func(event.Event) { <-gate }); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ { // one event in the handler, one queued
					if _, err := b.Publish(ev); err != nil {
						t.Fatal(err)
					}
				}
				step = func() { gate <- struct{}{} }
			}
			avg := testing.AllocsPerRun(200, func() {
				n, err := b.Publish(ev)
				if err != nil || n == 0 {
					t.Fatalf("publish: n=%d err=%v", n, err)
				}
				step()
			})
			if avg > row.budget {
				t.Errorf("Publish allocates %.1f per run, budget %.0f", avg, row.budget)
			}
		})
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
	evs[batch/2] = event.New().Set("sym", "none")  // an event that matches nothing
	if _, err := b.PublishBatch(evs); err != nil { // grow the pooled match buffer
		t.Fatal(err)
	}
	const budget = 1
	avg := testing.AllocsPerRun(100, func() {
		counts, err := b.PublishBatch(evs)
		if err != nil || len(counts) != batch || counts[batch/2] != 0 {
			t.Fatalf("publish batch: counts=%v err=%v", counts, err)
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

// discardSink takes every delivery and keeps none.
type discardSink struct{}

func (discardSink) Deliver(uint64, event.Event) bool { return true }

// selectiveText is the i-th filter of the TCP benchmark's selective shape:
// a bucket equality beside a price band, and a zero-satisfiable vol/region
// clause.
func selectiveText(i int) string {
	a := 50000 + i%2000*70
	return fmt.Sprintf(`(bucket = %d and (price > %d or price <= %d)) and (vol >= %d or not region = "r%d")`,
		1000+i%2500, a, a-50000, 10000+i*7%2000*10, i%4)
}

// TestOutletSubscribeAllocBudget: with 800 selective-shaped filters held, a
// steady-state Outlet.Subscribe and Unsubscribe of one more — whose price
// and vol thresholds no held filter shares, so its predicates enter and
// leave the index as churn's do — allocates no more than its budget, with
// and without parsing the filter's text first. Parsing is Parse's budget
// (internal/sublang); compiling allocates the tree's distinct predicates,
// their leaf map, its Code and its PredIDs; the rest is the index's
// bookkeeping and the broker's one Subscription, whose fan-out slot is
// the engine ID's (no map entry).
func TestOutletSubscribeAllocBudget(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	out := b.Attach(discardSink{})
	for i := 0; i < 800; i++ {
		if _, err := out.Subscribe(sublang.MustParse(selectiveText(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	text := selectiveText(800)
	expr := sublang.MustParse(text)
	for _, row := range []struct {
		name   string
		parse  bool
		budget float64
	}{
		{"subscribe and unsubscribe", false, 12},
		{"parse, subscribe and unsubscribe", true, 28},
	} {
		t.Run(row.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(200, func() {
				x := expr
				if row.parse {
					x = sublang.MustParse(text)
				}
				s, err := out.Subscribe(x, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Unsubscribe(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > row.budget {
				t.Errorf("%s allocates %.1f per filter, budget %.0f", row.name, avg, row.budget)
			}
		})
	}
}
