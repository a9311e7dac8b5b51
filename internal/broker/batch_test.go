package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
)

// The batched-publish differential property: over any workload — with
// subscribe/unsubscribe churn interleaved —
// PublishBatch delivers exactly the same multiset of (subscriber, event)
// pairs as sequential Publish, and returns the same per-event counts.
//
// Events carry a unique "seq" attribute so deliveries are attributable;
// queues are sized so nothing is dropped (drops are timing-dependent and
// would make the multisets incomparable), and the zero-drop assumption is
// asserted at the end.

// delivery is one delivered (logical subscriber, event sequence) pair.
type delivery struct {
	sub int
	seq int64
}

// recordingBroker wraps a broker whose handlers record every delivery.
type recordingBroker struct {
	b  *Broker
	mu sync.Mutex
	// got is the delivered multiset: (subscriber, seq) → count.
	got  map[delivery]int
	subs []*Subscription // by logical index; nil after unsubscribe
}

// newRecordingBroker builds a broker with room for every delivery.
func newRecordingBroker() *recordingBroker {
	return &recordingBroker{b: New(Options{QueueSize: 4096}), got: map[delivery]int{}}
}

// subscribe registers expression x as the next logical subscriber.
func (r *recordingBroker) subscribe(t *testing.T, x boolexpr.Expr) {
	t.Helper()
	i := len(r.subs)
	sub, err := r.b.Subscribe(x, func(ev event.Event) {
		v, ok := ev.Get("seq")
		if !ok {
			t.Errorf("delivered event without seq: %s", ev)
			return
		}
		r.mu.Lock()
		r.got[delivery{sub: i, seq: v.Int()}]++
		r.mu.Unlock()
	})
	if err != nil {
		t.Fatalf("subscribe %d: %v", i, err)
	}
	r.subs = append(r.subs, sub)
}

func (r *recordingBroker) unsubscribe(t *testing.T, i int) {
	t.Helper()
	if r.subs[i] == nil {
		return
	}
	if err := r.subs[i].Unsubscribe(); err != nil {
		t.Fatalf("unsubscribe %d: %v", i, err)
	}
	r.subs[i] = nil
}

// diffEvent draws a random event over the RandomExpr attribute pool,
// tagged with the unique sequence number.
func diffEvent(rng *rand.Rand, seq int64) event.Event {
	ev := event.New().Set("seq", seq)
	for i := 0; i < 6; i++ {
		attr := fmt.Sprintf("a%d", i)
		switch rng.Intn(6) {
		case 0: // absent
		case 1:
			ev = ev.Set(attr, rng.Intn(100))
		case 2:
			ev = ev.Set(attr, float64(rng.Intn(100))+0.5)
		case 3:
			ev = ev.Set(attr, "s"+fmt.Sprint(rng.Intn(50)))
		case 4:
			ev = ev.Set(attr, rng.Intn(2) == 0)
		default:
			ev = ev.Set(attr, rng.Intn(10))
		}
	}
	return ev
}

// compare closes both brokers (draining all queues) and asserts the
// delivered multisets are identical and nothing was dropped.
func compare(t *testing.T, batched, single *recordingBroker) {
	t.Helper()
	if err := batched.b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := single.b.Close(); err != nil {
		t.Fatal(err)
	}
	if d := batched.b.Stats().Dropped; d != 0 {
		t.Fatalf("batched broker dropped %d events; differential comparison needs zero drops (raise QueueSize)", d)
	}
	if d := single.b.Stats().Dropped; d != 0 {
		t.Fatalf("single broker dropped %d events; differential comparison needs zero drops (raise QueueSize)", d)
	}
	if len(batched.got) == 0 {
		t.Fatal("no deliveries at all; differential test is vacuous")
	}
	for k, n := range batched.got {
		if single.got[k] != n {
			t.Fatalf("delivery %+v: batched %d times, single %d times", k, n, single.got[k])
		}
	}
	for k, n := range single.got {
		if batched.got[k] != n {
			t.Fatalf("delivery %+v: single %d times, batched %d times", k, n, batched.got[k])
		}
	}
}

// TestPublishBatchDifferential drives identical randomized workloads —
// subscription rounds, interleaved unsubscription churn, batches of
// varying size (including empty and single-event ones) — through
// PublishBatch on one broker and sequential Publish on another, and
// requires identical per-event counts and identical delivered multisets.
func TestPublishBatchDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			batched := newRecordingBroker()
			single := newRecordingBroker()
			rng := rand.New(rand.NewSource(seed))
			cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3, AllowNot: true}

			var seq int64
			const rounds, subsPerRound = 6, 15
			for r := 0; r < rounds; r++ {
				for i := 0; i < subsPerRound; i++ {
					x := boolexpr.RandomExpr(rng, cfg)
					batched.subscribe(t, x)
					single.subscribe(t, x)
				}
				// Churn: retire ~1/4 of the live population in both brokers.
				for i := range batched.subs {
					if batched.subs[i] != nil && rng.Intn(4) == 0 {
						batched.unsubscribe(t, i)
						single.unsubscribe(t, i)
					}
				}
				// A few batches of varying size; 0 and 1 are always hit.
				for _, size := range []int{0, 1, rng.Intn(7), 8 + rng.Intn(25)} {
					evs := make([]event.Event, size)
					for i := range evs {
						seq++
						evs[i] = diffEvent(rng, seq)
					}
					counts, err := batched.b.PublishBatch(evs)
					if err != nil {
						t.Fatalf("PublishBatch: %v", err)
					}
					if len(counts) != len(evs) {
						t.Fatalf("PublishBatch returned %d counts for %d events", len(counts), len(evs))
					}
					for i, ev := range evs {
						n, err := single.b.Publish(ev)
						if err != nil {
							t.Fatalf("Publish: %v", err)
						}
						if n != counts[i] {
							t.Fatalf("round %d event %d: batch count %d, single count %d", r, i, counts[i], n)
						}
					}
				}
			}
			if got := batched.b.Stats().Batches; got == 0 {
				t.Error("Stats.Batches not counted")
			}
			compare(t, batched, single)
		})
	}
}

// TestPublishBatchConcurrentDifferential runs the same property with
// several goroutines batching concurrently (the store quiescent during the
// publish phase, so counts stay comparable): every goroutine's batches go
// through PublishBatch on one broker and sequential Publish on the other,
// under -race.
func TestPublishBatchConcurrentDifferential(t *testing.T) {
	// "plain" is the default-Options broker, the one mode there is.
	t.Run("plain", func(t *testing.T) {
		batched := newRecordingBroker()
		single := newRecordingBroker()
		rng := rand.New(rand.NewSource(7))
		cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3, AllowNot: true}
		for i := 0; i < 50; i++ {
			x := boolexpr.RandomExpr(rng, cfg)
			batched.subscribe(t, x)
			single.subscribe(t, x)
		}

		const workers, batchesPerWorker, batchSize = 4, 12, 16
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(100 + int64(w)))
				for bi := 0; bi < batchesPerWorker; bi++ {
					evs := make([]event.Event, batchSize)
					for i := range evs {
						// Disjoint per-worker sequence spaces keep seqs unique.
						seq := int64(w)*1_000_000 + int64(bi)*batchSize + int64(i)
						evs[i] = diffEvent(rng, seq)
					}
					counts, err := batched.b.PublishBatch(evs)
					if err != nil {
						t.Errorf("worker %d: PublishBatch: %v", w, err)
						return
					}
					for i, ev := range evs {
						n, err := single.b.Publish(ev)
						if err != nil {
							t.Errorf("worker %d: Publish: %v", w, err)
							return
						}
						if n != counts[i] {
							t.Errorf("worker %d batch %d event %d: batch count %d, single %d", w, bi, i, counts[i], n)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		compare(t, batched, single)
	})
}

// TestPublishBatchUnderChurnRace exercises PublishBatch racing real
// Subscribe/Unsubscribe churn and plain Publish on the same broker, so
// fan-out table mutation races the batch's delivery. With a mutating
// store no exact multiset is defined; the test pins the parts that are:
// per-batch result shape, monotone bookkeeping, and (via -race) the
// absence of data races on the coalesced enqueue path.
func TestPublishBatchUnderChurnRace(t *testing.T) {
	b := New(Options{QueueSize: 64})
	defer b.Close()
	rng := rand.New(rand.NewSource(3))
	cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3, AllowNot: true}
	for i := 0; i < 30; i++ {
		if _, err := b.Subscribe(boolexpr.RandomExpr(rng, cfg), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(4))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := b.Subscribe(boolexpr.RandomExpr(rng, cfg), func(event.Event) {})
			if err != nil {
				t.Errorf("churn subscribe: %v", err)
				return
			}
			if err := sub.Unsubscribe(); err != nil {
				t.Errorf("churn unsubscribe: %v", err)
				return
			}
		}
	}()

	var pubWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		pubWG.Add(1)
		go func(w int) {
			defer pubWG.Done()
			rng := rand.New(rand.NewSource(10 + int64(w)))
			for i := 0; i < 60; i++ {
				evs := make([]event.Event, 1+rng.Intn(16))
				for j := range evs {
					evs[j] = diffEvent(rng, int64(w*10000+i*100+j))
				}
				counts, err := b.PublishBatch(evs)
				if err != nil {
					t.Errorf("PublishBatch: %v", err)
					return
				}
				if len(counts) != len(evs) {
					t.Errorf("got %d counts for %d events", len(counts), len(evs))
					return
				}
				if _, err := b.Publish(evs[0]); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}(w)
	}
	pubWG.Wait()
	close(stop)
	churnWG.Wait()

	st := b.Stats()
	if st.Published == 0 || st.Batches == 0 {
		t.Errorf("no publishes recorded: %+v", st)
	}
}
