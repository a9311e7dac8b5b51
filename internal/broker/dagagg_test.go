package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// dagBand returns nested covering filters: within a category, a higher
// rank is strictly wider and provably covers every lower rank.
func dagBand(cat, rank int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(cat)),
		boolexpr.Pred("price", predicate.Lt, int64(10*(rank+1))),
	)
}

// dagChurnFilter mixes covering chains (dagBand) with the PR 2 aggregate
// filters (identical-duplicate pressure) so the script exercises interning,
// covering attach, demotion and promotion together.
func dagChurnFilter(rng *rand.Rand) boolexpr.Expr {
	if rng.Intn(2) == 0 {
		return dagBand(rng.Intn(3), pickSkewed(rng))
	}
	return aggFilter(pickSkewed(rng))
}

// TestDAGAggregateDifferential drives each broker mode through one
// interleaved subscribe/unsubscribe/publish script of covering chains and
// identical duplicates, with a naive boolexpr oracle (evaluate every live
// subscription's filter against every event) as ground truth: per-event
// matched counts and the final (subscriber, event) delivery multiset must
// equal the oracle's.
func TestDAGAggregateDifferential(t *testing.T) {
	for _, mode := range brokerModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.QueueSize = 4096
			b := New(opts)
			defer b.Close()

			var rec recorder
			rng := rand.New(rand.NewSource(77))
			type entry struct {
				s    *Subscription
				expr boolexpr.Expr
			}
			live := map[string]entry{}
			var liveTags []string
			var oracle []aggDelivery
			seq := int64(0)

			publish := func(step int, evs ...event.Event) {
				got := 0
				if len(evs) == 1 {
					n, err := b.Publish(evs[0])
					if err != nil {
						t.Fatal(err)
					}
					got = n
				} else {
					counts, err := b.PublishBatch(evs)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range counts {
						got += n
					}
				}
				want := 0
				for tag, e := range live {
					for _, ev := range evs {
						if e.expr.Eval(ev) {
							want++
							s, _ := ev.Get("seq")
							oracle = append(oracle, aggDelivery{tag: tag, seq: s.Int()})
						}
					}
				}
				if got != want {
					t.Fatalf("step %d: oracle wants %d deliveries, broker matched %d", step, want, got)
				}
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // subscribe
					tag := fmt.Sprintf("s%d", step)
					f := dagChurnFilter(rng)
					s, err := b.Subscribe(f, rec.handler(tag))
					if err != nil {
						t.Fatal(err)
					}
					live[tag] = entry{s: s, expr: f}
					liveTags = append(liveTags, tag)
				case op < 6 && len(liveTags) > 0: // unsubscribe
					i := rng.Intn(len(liveTags))
					tag := liveTags[i]
					liveTags[i] = liveTags[len(liveTags)-1]
					liveTags = liveTags[:len(liveTags)-1]
					e := live[tag]
					delete(live, tag)
					if err := e.s.Unsubscribe(); err != nil {
						t.Fatal(err)
					}
				case op < 7: // publish a small batch
					evs := make([]event.Event, 3)
					for i := range evs {
						seq++
						evs[i] = event.New().
							Set("cat", int64(rng.Intn(10))).
							Set("price", int64(rng.Intn(120))).
							Set("seq", seq)
					}
					publish(step, evs...)
				default: // publish one event
					seq++
					publish(step, event.New().
						Set("cat", int64(rng.Intn(10))).
						Set("price", int64(rng.Intn(120))).
						Set("seq", seq))
				}
			}

			st := b.Stats()
			if st.Dropped != 0 {
				t.Fatalf("drops invalidate the multiset comparison: %d", st.Dropped)
			}
			if st.FrontierFilters > st.DistinctFilters {
				t.Errorf("FrontierFilters %d > DistinctFilters %d", st.FrontierFilters, st.DistinctFilters)
			}
			if st.DistinctFilters > st.Subscriptions {
				t.Errorf("DistinctFilters %d > Subscriptions %d", st.DistinctFilters, st.Subscriptions)
			}
			if opts.Aggregate && st.Subscriptions > 20 && st.FrontierFilters == st.DistinctFilters {
				t.Error("covering never attached a subscription; the script lost its teeth")
			}

			b.Close()
			want := (&recorder{seen: oracle}).sorted()
			got := rec.sorted()
			if len(got) != len(want) {
				t.Fatalf("delivered %d events, oracle wants %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("delivery %d = %+v, oracle wants %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestDAGAggregateConcurrentChurn hammers nested covering filters with
// concurrent subscribe/publish/unsubscribe; under -race this pins the
// locking around poset mutation, promotion and the delivery walk, and the
// final state must be empty.
func TestDAGAggregateConcurrentChurn(t *testing.T) {
	b := New(Options{QueueSize: 256, Aggregate: true})
	defer b.Close()

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				s, err := b.Subscribe(dagBand(rng.Intn(2), rng.Intn(4)), func(event.Event) {})
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					if _, err := b.Publish(event.New().Set("cat", int64(rng.Intn(2))).Set("price", int64(rng.Intn(50)))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.Unsubscribe(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := b.Stats(); st.Subscriptions != 0 || st.DistinctFilters != 0 || st.FrontierFilters != 0 || st.CoveredSubscribers != 0 {
		t.Errorf("after churn: %+v, want empty broker", st)
	}
}

// TestDAGPromoteBeforeRetract pins the delivery-continuity contract: a
// covered subscription keeps receiving matching events across the
// unsubscribe of the frontier filter that covered it.
func TestDAGPromoteBeforeRetract(t *testing.T) {
	b := New(Options{Aggregate: true})
	defer b.Close()

	var mu sync.Mutex
	counts := map[string]int{}
	handler := func(tag string) Handler {
		return func(event.Event) {
			mu.Lock()
			counts[tag]++
			mu.Unlock()
		}
	}

	broad, err := b.Subscribe(dagBand(1, 9), handler("broad"))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := b.Subscribe(dagBand(1, 0), handler("narrow"))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.ID() != 0 {
		t.Fatalf("covered subscription has engine ID %d, want 0", narrow.ID())
	}
	if st := b.Stats(); st.FrontierFilters != 1 || st.DistinctFilters != 2 || st.CoveredSubscribers != 1 {
		t.Fatalf("covered attach: %+v", st)
	}

	ev := event.New().Set("cat", int64(1)).Set("price", int64(5))
	if n, _ := b.Publish(ev); n != 2 {
		t.Fatalf("Publish → %d, want both subscribers", n)
	}

	// Retracting the covering frontier filter must promote the covered one
	// into the engine; events keep flowing.
	if err := broad.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.FrontierFilters != 1 || st.DistinctFilters != 1 || st.CoveredSubscribers != 0 {
		t.Fatalf("after promotion: %+v", st)
	}
	if narrow.ID() == 0 {
		t.Fatal("promoted subscription still reports no engine entry")
	}
	if n, _ := b.Publish(ev); n != 1 {
		t.Fatalf("Publish after promotion → %d, want 1", n)
	}
	if err := narrow.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Subscriptions != 0 || st.FrontierFilters != 0 || st.DistinctFilters != 0 {
		t.Fatalf("after teardown: %+v", st)
	}

	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if counts["broad"] != 1 || counts["narrow"] != 2 {
		t.Errorf("deliveries = %v, want broad:1 narrow:2", counts)
	}
}

// TestStatsFilterAccountingSplit pins the DistinctFilters/FrontierFilters
// split: without aggregation both equal the subscriber count; under
// aggregation identical filters intern to one distinct filter and, with no
// covering among them, every distinct filter is an engine entry; once
// filters cover each other DistinctFilters keeps counting distinct live
// filters while FrontierFilters counts only engine entries.
func TestStatsFilterAccountingSplit(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		b := New(Options{})
		defer b.Close()
		for i := 0; i < 3; i++ {
			if _, err := b.Subscribe(aggFilter(1), func(event.Event) {}); err != nil {
				t.Fatal(err)
			}
		}
		st := b.Stats()
		if st.DistinctFilters != 3 || st.FrontierFilters != 3 || st.CoveredSubscribers != 0 {
			t.Errorf("off: %+v, want DistinctFilters=FrontierFilters=3", st)
		}
	})
	t.Run("aggregate", func(t *testing.T) {
		b := New(Options{Aggregate: true})
		defer b.Close()
		for i := 0; i < 3; i++ {
			if _, err := b.Subscribe(aggFilter(1), func(event.Event) {}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Subscribe(aggFilter(2), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.DistinctFilters != 2 || st.FrontierFilters != 2 {
			t.Errorf("aggregate: %+v, want DistinctFilters=FrontierFilters=2", st)
		}
		if st.AggregatedSubscribers != 2 {
			t.Errorf("aggregate: AggregatedSubscribers = %d, want 2", st.AggregatedSubscribers)
		}
	})
	t.Run("dag", func(t *testing.T) {
		b := New(Options{Aggregate: true})
		defer b.Close()
		// One covering chain (3 distinct filters, 1 frontier) plus one
		// duplicate of the narrowest (interned, not a new filter).
		for rank := 0; rank < 3; rank++ {
			if _, err := b.Subscribe(dagBand(1, rank), func(event.Event) {}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Subscribe(dagBand(1, 0), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Subscriptions != 4 {
			t.Fatalf("dag: %+v, want 4 subscriptions", st)
		}
		if st.DistinctFilters != 3 {
			t.Errorf("dag: DistinctFilters = %d, want 3 (interned duplicate is not distinct)", st.DistinctFilters)
		}
		if st.FrontierFilters != 1 {
			t.Errorf("dag: FrontierFilters = %d, want 1 (only the widest band holds an engine entry)", st.FrontierFilters)
		}
		if st.CoveredSubscribers != 3 {
			t.Errorf("dag: CoveredSubscribers = %d, want 3 (two narrow filters, one duplicated)", st.CoveredSubscribers)
		}
		if st.AggregatedSubscribers != 1 {
			t.Errorf("dag: AggregatedSubscribers = %d, want 1 (the interned duplicate)", st.AggregatedSubscribers)
		}
	})
}
