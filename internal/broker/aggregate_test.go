package broker

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// aggFilter returns one of n distinct filters; callers picking the same i
// must aggregate onto one engine entry.
func aggFilter(i int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(i)),
		boolexpr.NewOr(
			boolexpr.Pred("price", predicate.Lt, int64(10*i+10)),
			boolexpr.Pred("price", predicate.Gt, int64(90)),
		),
	)
}

func TestAggregateSharesEngineEntries(t *testing.T) {
	b := New(Options{Aggregate: true})
	defer b.Close()

	var mu sync.Mutex
	got := map[int]int{} // subscriber tag → deliveries
	handler := func(tag int) Handler {
		return func(event.Event) {
			mu.Lock()
			got[tag]++
			mu.Unlock()
		}
	}

	// Ten subscribers over two distinct filters; commuted duplicates must
	// intern onto the same entry.
	subs := make([]*Subscription, 0, 10)
	for tag := 0; tag < 10; tag++ {
		expr := aggFilter(tag % 2)
		if tag%3 == 0 {
			// Same filter, different tree shape: And children commuted.
			and := expr.(boolexpr.And)
			expr = boolexpr.NewAnd(and.Xs[1], and.Xs[0])
		}
		s, err := b.Subscribe(expr, handler(tag))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}

	st := b.Stats()
	if st.Subscriptions != 10 {
		t.Errorf("Subscriptions = %d, want 10", st.Subscriptions)
	}
	if st.DistinctFilters != 2 {
		t.Errorf("DistinctFilters = %d, want 2", st.DistinctFilters)
	}
	if st.AggregatedSubscribers != 8 {
		t.Errorf("AggregatedSubscribers = %d, want 8", st.AggregatedSubscribers)
	}

	// An event matching filter 0 must reach every attached subscriber once.
	n, err := b.Publish(event.New().Set("cat", 0).Set("price", 5))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("Publish matched %d subscribers, want 5", n)
	}
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	for tag := 0; tag < 10; tag += 2 {
		if got[tag] != 1 {
			t.Errorf("subscriber %d deliveries = %d, want 1", tag, got[tag])
		}
	}
	for tag := 1; tag < 10; tag += 2 {
		if got[tag] != 0 {
			t.Errorf("subscriber %d deliveries = %d, want 0", tag, got[tag])
		}
	}
	_ = subs
}

func TestAggregateRefcountedUnsubscribe(t *testing.T) {
	b := New(Options{Aggregate: true})
	defer b.Close()

	var mu sync.Mutex
	counts := map[string]int{}
	sub := func(tag string) *Subscription {
		s, err := b.Subscribe(aggFilter(1), func(event.Event) {
			mu.Lock()
			counts[tag]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := sub("one"), sub("two")
	if s1.ID() != s2.ID() {
		t.Fatalf("aggregated subscribers got distinct engine IDs %d, %d", s1.ID(), s2.ID())
	}
	if st := b.Stats(); st.DistinctFilters != 1 {
		t.Fatalf("DistinctFilters = %d, want 1", st.DistinctFilters)
	}

	ev := event.New().Set("cat", 1).Set("price", 100)
	if n, _ := b.Publish(ev); n != 2 {
		t.Fatalf("Publish → %d, want 2", n)
	}
	// First unsubscribe must keep the engine entry alive for the second.
	if err := s1.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.DistinctFilters != 1 || st.Subscriptions != 1 {
		t.Fatalf("after first unsubscribe: %+v", st)
	}
	if n, _ := b.Publish(ev); n != 1 {
		t.Fatalf("Publish after first unsubscribe → %d, want 1", n)
	}
	// Second (idempotent) unsubscribe detaches the engine entry.
	if err := s1.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.DistinctFilters != 0 || st.Subscriptions != 0 {
		t.Fatalf("after both unsubscribes: %+v", st)
	}
	if n, _ := b.Publish(ev); n != 0 {
		t.Fatalf("Publish after all unsubscribes → %d, want 0", n)
	}

	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if counts["one"] != 1 || counts["two"] != 2 {
		t.Errorf("deliveries = %v, want one:1 two:2", counts)
	}
}

func TestAggregateChanSubscription(t *testing.T) {
	b := New(Options{Aggregate: true})
	defer b.Close()
	s1, ch1, err := b.SubscribeChan(aggFilter(3))
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := b.SubscribeChan(aggFilter(3))
	if err != nil {
		t.Fatal(err)
	}
	ev := event.New().Set("cat", 3).Set("price", 0)
	if n, _ := b.Publish(ev); n != 2 {
		t.Fatalf("Publish → %d, want 2", n)
	}
	if got := <-ch1; !got.Equal(ev) {
		t.Error("ch1 got wrong event")
	}
	if got := <-ch2; !got.Equal(ev) {
		t.Error("ch2 got wrong event")
	}
	if err := s1.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-ch1; open {
		t.Error("ch1 still open after unsubscribe")
	}
}

func TestStatsWithoutAggregation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	for i := 0; i < 4; i++ {
		if _, err := b.Subscribe(aggFilter(1), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.DistinctFilters != 4 {
		t.Errorf("without aggregation DistinctFilters = %d, want 4 (one engine entry per subscriber)", st.DistinctFilters)
	}
	if st.AggregatedSubscribers != 0 {
		t.Errorf("AggregatedSubscribers = %d, want 0", st.AggregatedSubscribers)
	}
}

// aggDelivery is one (subscriber, event) observation for multiset
// comparison.
type aggDelivery struct {
	tag string
	seq int64
}

// recorder collects deliveries across subscribers of one broker.
type recorder struct {
	mu   sync.Mutex
	seen []aggDelivery
}

func (r *recorder) handler(tag string) Handler {
	return func(ev event.Event) {
		seq, _ := ev.Get("seq")
		r.mu.Lock()
		r.seen = append(r.seen, aggDelivery{tag: tag, seq: seq.Int()})
		r.mu.Unlock()
	}
}

func (r *recorder) sorted() []aggDelivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]aggDelivery(nil), r.seen...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].tag != out[j].tag {
			return out[i].tag < out[j].tag
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// pickSkewed draws a filter index with heavy popularity skew: two thirds of
// the draws land on the two most popular filters.
func pickSkewed(rng *rand.Rand) int {
	if rng.Intn(3) > 0 {
		return rng.Intn(2)
	}
	return rng.Intn(10)
}

// TestAggregateDifferential drives an aggregated and an unaggregated broker
// through the same interleaved churn-and-publish script (Zipf-skewed
// duplicate filters, interleaved unsubscribes) and requires the exact same
// per-event match counts and the exact same (subscriber, event) delivery
// multisets.
func TestAggregateDifferential(t *testing.T) {
	// Every broker builds one engine, so the run is the single-shard one;
	// the subtest keeps the name it had beside the retired four-shard run.
	t.Run("shards=1", func(t *testing.T) {
		plain := New(Options{QueueSize: 4096})
		agg := New(Options{QueueSize: 4096, Aggregate: true})
		defer plain.Close()
		defer agg.Close()

		var recPlain, recAgg recorder
		rng := rand.New(rand.NewSource(99))
		type pair struct{ p, a *Subscription }
		live := map[string]pair{}
		var liveTags []string
		seq := int64(0)

		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // subscribe a (often duplicate) filter
				tag := fmt.Sprintf("s%d", step)
				f := aggFilter(pickSkewed(rng))
				sp, err := plain.Subscribe(f, recPlain.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				sa, err := agg.Subscribe(f, recAgg.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				live[tag] = pair{p: sp, a: sa}
				liveTags = append(liveTags, tag)
			case op < 6 && len(liveTags) > 0: // unsubscribe a random one
				i := rng.Intn(len(liveTags))
				tag := liveTags[i]
				liveTags[i] = liveTags[len(liveTags)-1]
				liveTags = liveTags[:len(liveTags)-1]
				pr := live[tag]
				delete(live, tag)
				if err := pr.p.Unsubscribe(); err != nil {
					t.Fatal(err)
				}
				if err := pr.a.Unsubscribe(); err != nil {
					t.Fatal(err)
				}
			default: // publish
				seq++
				ev := event.New().
					Set("cat", int64(rng.Intn(10))).
					Set("price", int64(rng.Intn(120))).
					Set("seq", seq)
				np, err := plain.Publish(ev)
				if err != nil {
					t.Fatal(err)
				}
				na, err := agg.Publish(ev)
				if err != nil {
					t.Fatal(err)
				}
				if np != na {
					t.Fatalf("step %d: plain matched %d, aggregated %d", step, np, na)
				}
			}
		}

		stPlain, stAgg := plain.Stats(), agg.Stats()
		if stPlain.Subscriptions != stAgg.Subscriptions {
			t.Errorf("subscriber counts diverged: %d vs %d", stPlain.Subscriptions, stAgg.Subscriptions)
		}
		if stAgg.DistinctFilters > stAgg.Subscriptions {
			t.Errorf("DistinctFilters %d > Subscriptions %d", stAgg.DistinctFilters, stAgg.Subscriptions)
		}
		if stAgg.Subscriptions > 0 && stAgg.DistinctFilters == stPlain.DistinctFilters &&
			stAgg.AggregatedSubscribers == 0 {
			t.Error("aggregation never shared a filter; the script lost its teeth")
		}
		if stPlain.Dropped != 0 || stAgg.Dropped != 0 {
			t.Fatalf("drops invalidate the multiset comparison: plain %d, agg %d",
				stPlain.Dropped, stAgg.Dropped)
		}

		// Drain delivery goroutines, then compare multisets.
		plain.Close()
		agg.Close()
		dp, da := recPlain.sorted(), recAgg.sorted()
		if len(dp) != len(da) {
			t.Fatalf("delivery counts differ: plain %d, aggregated %d", len(dp), len(da))
		}
		for i := range dp {
			if dp[i] != da[i] {
				t.Fatalf("delivery %d differs: plain %+v, aggregated %+v", i, dp[i], da[i])
			}
		}
	})
}

// TestAggregateConcurrentChurn hammers one popular filter with concurrent
// subscribe/unsubscribe/publish from many goroutines; run under -race this
// pins the locking of the group fan-out, and the final state must be
// empty.
func TestAggregateConcurrentChurn(t *testing.T) {
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
				s, err := b.Subscribe(aggFilter(rng.Intn(3)), func(event.Event) {})
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					if _, err := b.Publish(event.New().Set("cat", int64(rng.Intn(3))).Set("price", int64(rng.Intn(120)))); err != nil {
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
	if st := b.Stats(); st.Subscriptions != 0 || st.DistinctFilters != 0 {
		t.Errorf("after churn: %+v, want empty broker", st)
	}
}
