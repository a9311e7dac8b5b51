package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

func TestSubscribeHandlerDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	var got atomic.Int64
	sub, err := b.Subscribe(boolexpr.Pred("price", predicate.Gt, 100), func(ev event.Event) {
		got.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.Publish(event.New().Set("price", 150)); err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	if n, err := b.Publish(event.New().Set("price", 50)); err != nil || n != 0 {
		t.Fatalf("non-matching Publish = %d, %v", n, err)
	}
	waitFor(t, func() bool { return got.Load() == 1 }, "handler not invoked")
	if sub.Dropped() != 0 {
		t.Errorf("Dropped = %d", sub.Dropped())
	}
}

func TestSubscribeChanDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	sub, ch, err := b.SubscribeChan(boolexpr.Pred("sym", predicate.Eq, "A"))
	if err != nil {
		t.Fatal(err)
	}
	want := event.New().Set("sym", "A").Set("px", 10)
	if _, err := b.Publish(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if !got.Equal(want) {
			t.Errorf("received %s, want %s", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event received")
	}
	// Unsubscribe closes the channel after drain.
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-ch; open {
		t.Error("channel should be closed after Unsubscribe")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	var got atomic.Int64
	sub, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), func(event.Event) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(event.New().Set("a", 1))
	waitFor(t, func() bool { return got.Load() == 1 }, "first event not delivered")

	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.Publish(event.New().Set("a", 1)); n != 0 {
		t.Errorf("Publish after unsubscribe matched %d", n)
	}
	if b.NumSubscriptions() != 0 {
		t.Errorf("NumSubscriptions = %d", b.NumSubscriptions())
	}
	// Idempotent.
	if err := sub.Unsubscribe(); err != nil {
		t.Errorf("second Unsubscribe: %v", err)
	}
}

func TestMultipleSubscribersFanout(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	const n = 20
	var mu sync.Mutex
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		i := i
		threshold := i * 10
		_, err := b.Subscribe(boolexpr.Pred("v", predicate.Gt, threshold), func(event.Event) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// v=95 matches thresholds 0..90 → subscribers 0..9.
	if got, _ := b.Publish(event.New().Set("v", 95)); got != 10 {
		t.Fatalf("Publish matched %d, want 10", got)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(counts) == 10
	}, "fanout incomplete")
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 10; i++ {
		if counts[i] != 1 {
			t.Errorf("subscriber %d received %d events", i, counts[i])
		}
	}
}

func TestSlowConsumerDropsNotBlocks(t *testing.T) {
	b := New(Options{QueueSize: 2})
	defer b.Close()

	block := make(chan struct{})
	var handled atomic.Int64
	sub, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), func(event.Event) {
		<-block
		handled.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queue capacity 2 + 1 in-flight in the handler; publish 10, the rest
	// must drop without blocking Publish.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			b.Publish(event.New().Set("a", 1))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on slow consumer")
	}
	waitFor(t, func() bool { return sub.Dropped() > 0 }, "no drops recorded")
	close(block)
	waitFor(t, func() bool {
		return handled.Load()+int64(sub.Dropped()) == 10
	}, "handled+dropped should account for all events")
	if st := b.Stats(); st.Dropped != sub.Dropped() {
		t.Errorf("broker dropped %d, subscription %d", st.Dropped, sub.Dropped())
	}
}

// TestPublishReturnsMatchedNotEnqueued pins the Publish contract: the
// result counts the subscribers the event matched, and a full queue shows
// up in Dropped — not as a smaller result.
func TestPublishReturnsMatchedNotEnqueued(t *testing.T) {
	b := New(Options{QueueSize: 1})
	defer b.Close()

	entered := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	first := true
	sub, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), func(event.Event) {
		if first { // delivery goroutine only: no synchronisation needed
			first = false
			close(entered)
		}
		<-block
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := event.New().Set("a", 1)
	if n, err := b.Publish(ev); err != nil || n != 1 {
		t.Fatalf("first Publish = %d, %v; want 1", n, err)
	}
	<-entered // the handler holds the first event; the one-slot queue is empty
	for i := 0; i < 3; i++ {
		if n, err := b.Publish(ev); err != nil || n != 1 {
			t.Fatalf("Publish %d with a blocked subscriber = %d, %v; want 1 (matched)", i, n, err)
		}
	}
	// One of the three fills the queue, the other two are dropped.
	if got := sub.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	counts, err := b.PublishBatch([]event.Event{ev, event.New().Set("a", 2)})
	if err != nil || counts[0] != 1 || counts[1] != 0 {
		t.Errorf("PublishBatch = %v, %v; want [1 0]", counts, err)
	}
	if got := b.Stats().Dropped; got != 3 {
		t.Errorf("Stats.Dropped = %d, want 3", got)
	}
}

func TestCloseWaitsAndRejects(t *testing.T) {
	b := New(Options{})
	var got atomic.Int64
	_, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), func(event.Event) {
		time.Sleep(10 * time.Millisecond)
		got.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(event.New().Set("a", 1))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must have waited for the in-flight delivery.
	if got.Load() != 1 {
		t.Errorf("delivered = %d after Close, want 1", got.Load())
	}
	if _, err := b.Publish(event.New().Set("a", 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after Close err = %v", err)
	}
	if _, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), func(event.Event) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after Close err = %v", err)
	}
	// Idempotent.
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.Subscribe(boolexpr.Pred("a", predicate.Eq, 1), nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := b.Subscribe(nil, func(event.Event) {}); err == nil {
		t.Error("nil expression accepted")
	}
}

func TestStats(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	_, ch, err := b.SubscribeChan(boolexpr.Pred("a", predicate.Gt, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Publish(event.New().Set("a", i)) // a>0 matches for i>=1 → 4 events
	}
	for i := 0; i < 4; i++ {
		<-ch
	}
	st := b.Stats()
	if st.Published != 5 || st.Delivered != 4 || st.Subscriptions != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New(Options{QueueSize: 256})
	defer b.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sub, err := b.Subscribe(boolexpr.Pred("x", predicate.Gt, w*100+i), func(event.Event) {})
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := sub.Unsubscribe(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := b.Publish(event.New().Set("x", i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.NumSubscriptions() != 200 {
		t.Errorf("NumSubscriptions = %d, want 200", b.NumSubscriptions())
	}
}
