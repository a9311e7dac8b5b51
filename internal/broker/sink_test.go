package broker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// recordingSink is an external sink as netbroker's connections are: it holds
// what it is given up to its outlet's bound and reports refusals and drains
// under its own lock.
type recordingSink struct {
	out *Outlet

	mu      sync.Mutex
	handles []uint64
	seqs    []int64
}

func (r *recordingSink) Deliver(handle uint64, ev event.Event) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.handles) >= r.out.Capacity() {
		r.out.Refuse()
		return false
	}
	seq, _ := ev.Get("seq")
	r.handles, r.seqs = append(r.handles, handle), append(r.seqs, seq.Int())
	return true
}

// drain hands the first n held deliveries on.
func (r *recordingSink) drain(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handles, r.seqs = r.handles[n:], r.seqs[n:]
	r.out.Sent(n, len(r.handles))
}

func seqEvent(seq int) event.Event { return event.New().Set("k", 1).Set("seq", seq) }

var matchAll = boolexpr.Pred("k", predicate.Eq, 1)

// TestSinkBoundIsQueueSizePerSubscription: an attached sink may hold
// QueueSize deliveries for each of its live subscriptions; a refusal is
// counted on the refused subscription and on the broker, and marks every
// subscription of the sink congested until a quarter of the bound is left.
func TestSinkBoundIsQueueSizePerSubscription(t *testing.T) {
	b := New(Options{QueueSize: 4})
	defer b.Close()
	r := &recordingSink{}
	r.out = b.Attach(r)
	var subs []*Subscription
	for h := uint64(1); h <= 2; h++ {
		s, err := r.out.Subscribe(matchAll, h)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if got := r.out.Capacity(); got != 8 {
		t.Fatalf("Capacity = %d, want QueueSize × subscriptions = 8", got)
	}
	// A bystander on a sink of its own keeps the congested share below all.
	other, err := b.Subscribe(boolexpr.Pred("k", predicate.Eq, 2), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 4; seq++ { // 4 events × 2 subscriptions fill the bound
		if n, err := b.Publish(seqEvent(seq)); err != nil || n != 2 {
			t.Fatalf("Publish = %d, %v", n, err)
		}
	}
	if st := b.Stats(); st.Dropped != 0 || st.CongestedSubscribers != 0 {
		t.Fatalf("at the bound, before any refusal: %+v", st)
	}
	b.Publish(seqEvent(4)) // refused twice
	if subs[0].Dropped() != 1 || subs[1].Dropped() != 1 || other.Dropped() != 0 {
		t.Errorf("Dropped = %d, %d, bystander %d; want 1, 1, 0", subs[0].Dropped(), subs[1].Dropped(), other.Dropped())
	}
	if st := b.Stats(); st.Dropped != 2 || st.CongestedSubscribers != 2 || !b.Congested() {
		t.Errorf("after the refusal: %+v, Congested %v", st, b.Congested())
	}
	// The gauge follows the sink's subscriptions while it is congested.
	s3, err := r.out.Subscribe(matchAll, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().CongestedSubscribers; got != 3 {
		t.Errorf("CongestedSubscribers = %d after a subscribe on the congested sink, want 3", got)
	}
	s3.Unsubscribe()
	r.drain(5) // 3 of 8 left: above a quarter
	if got := b.Stats().CongestedSubscribers; got != 2 {
		t.Errorf("CongestedSubscribers = %d with 3 of 8 held, want 2 (hysteresis)", got)
	}
	r.drain(1) // 2 of 8
	if st := b.Stats(); st.CongestedSubscribers != 0 || b.Congested() || st.Delivered != 6 {
		t.Errorf("after the drain: %+v, Congested %v", st, b.Congested())
	}
	if len(r.seqs) != 2 || r.seqs[0] != 3 || r.seqs[1] != 3 || r.handles[0]+r.handles[1] != 3 {
		t.Errorf("held deliveries (handle, seq) = %v %v, want event 3 for handles 1 and 2", r.handles, r.seqs)
	}
}

// TestSinkHandlerQueueSemantics: a handler sink holds one event in the
// handler and QueueSize behind it, drops the next, and delivers in publish
// order — whether or not its goroutine has started yet.
func TestSinkHandlerQueueSemantics(t *testing.T) {
	b := New(Options{QueueSize: 2})
	defer b.Close()
	release := make(chan struct{})
	var got []int64
	done := make(chan struct{})
	sub, err := b.Subscribe(matchAll, func(ev event.Event) {
		<-release
		seq, _ := ev.Get("seq")
		if got = append(got, seq.Int()); len(got) == 3 {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 5; seq++ {
		b.Publish(seqEvent(seq))
	}
	if sub.Dropped() != 2 || b.Stats().CongestedSubscribers != 1 {
		t.Errorf("Dropped = %d, congested %d; want 2 of 5 dropped, 1 congested", sub.Dropped(), b.Stats().CongestedSubscribers)
	}
	close(release)
	<-done
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("handler saw %v, want 0 1 2", got)
	}
}

// TestSinkGoroutinesOnlyWhileDraining: an idle handler subscription owns no
// goroutine — 10 000 of them leave the count where it was — and the drains
// a burst starts are gone once Close returns.
func TestSinkGoroutinesOnlyWhileDraining(t *testing.T) {
	before := runtime.NumGoroutine()
	b := New(Options{})
	var delivered atomic.Int64
	for i := 0; i < 10000; i++ {
		if _, err := b.Subscribe(boolexpr.Pred("k", predicate.Eq, i%100), func(event.Event) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after 10000 idle subscriptions, %d before", got, before)
	}
	n, err := b.Publish(seqEvent(0))
	if err != nil || n != 100 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	b.Close() // waits for the drains
	if delivered.Load() != 100 {
		t.Errorf("delivered %d of 100 before Close returned", delivered.Load())
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "drain goroutines outlived Close")
}

// TestSinkUnsubscribeLosesNothingSilently: every event matched before
// Unsubscribe returns is delivered or counted dropped, and the handler
// still sees what its sink held.
func TestSinkUnsubscribeLosesNothingSilently(t *testing.T) {
	b := New(Options{QueueSize: 8})
	var delivered atomic.Int64
	sub, err := b.Subscribe(matchAll, func(event.Event) {
		runtime.Gosched()
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var matched atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < 500; seq++ {
				n, err := b.Publish(seqEvent(seq))
				if err != nil {
					t.Error(err)
					return
				}
				matched.Add(int64(n))
				if seq == 250 {
					sub.Unsubscribe()
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	if got := delivered.Load() + int64(sub.Dropped()); got != matched.Load() {
		t.Errorf("delivered %d + dropped %d = %d, matched %d", delivered.Load(), sub.Dropped(), got, matched.Load())
	}
	if st := b.Stats(); int64(st.Delivered) != delivered.Load() || st.Dropped != sub.Dropped() {
		t.Errorf("Stats %+v disagree with the handler's %d and the subscription's %d", st, delivered.Load(), sub.Dropped())
	}
}

// TestSinkChanClosesOnceBehindLastEvent: SubscribeChan's channel is sent to
// directly, holds QueueSize events, and is closed exactly once — by
// Unsubscribe or Close, whichever comes first — behind the last event.
func TestSinkChanClosesOnceBehindLastEvent(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		b := New(Options{QueueSize: 4})
		before := runtime.NumGoroutine()
		sub, ch, err := b.SubscribeChan(matchAll)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 6; seq++ {
			b.Publish(seqEvent(seq))
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("SubscribeChan runs %d goroutines", got-before)
		}
		if sub.Dropped() != 2 || b.Stats().CongestedSubscribers != 0 {
			t.Errorf("Dropped = %d, congested %d; want 2, 0", sub.Dropped(), b.Stats().CongestedSubscribers)
		}
		if closeFirst {
			b.Close()
		}
		sub.Unsubscribe()
		sub.Unsubscribe()
		b.Close()
		var seqs []int64
		for ev := range ch {
			seq, _ := ev.Get("seq")
			seqs = append(seqs, seq.Int())
		}
		if len(seqs) != 4 || seqs[0] != 0 || seqs[3] != 3 {
			t.Errorf("channel carried %v, want 0..3 and then closed", seqs)
		}
	}
}
