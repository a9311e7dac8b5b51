package netoverlay

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
)

func pred(attr string, op predicate.Op, v any) boolexpr.Expr {
	return boolexpr.Pred(attr, op, v)
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewNetwork(0, nil, Options{}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewNetwork(3, [][2]int{{0, 1}}, Options{}); !errors.Is(err, ErrNotATree) {
		t.Errorf("missing edge err = %v", err)
	}
	if _, err := NewNetwork(3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, Options{}); !errors.Is(err, ErrNotATree) {
		t.Errorf("cycle err = %v", err)
	}
	if _, err := NewNetwork(3, [][2]int{{0, 1}, {0, 5}}, Options{}); !errors.Is(err, ErrNotATree) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := NewNetwork(5, TreeEdges(5, 0), Options{}); err == nil {
		t.Error("fanout 0 accepted")
	}
	// The network numbers its nodes and gives each a private registry.
	if _, err := NewNetwork(2, LineEdges(2), Options{NodeID: 7}); err == nil {
		t.Error("Options.NodeID accepted")
	}
	if _, err := NewNetwork(2, LineEdges(2), Options{Metrics: obs.NewRegistry()}); err == nil {
		t.Error("Options.Metrics accepted")
	}
	nw, err := NewNetwork(1, nil, Options{})
	if err != nil {
		t.Fatalf("single node: %v", err)
	}
	nw.Close()
}

// TestLineEndToEndDelivery publishes right after Flush returns and asserts
// exact counts: Flush is a real quiescent point, not a timed guess.
func TestLineEndToEndDelivery(t *testing.T) {
	nw := newNet(t, 5, LineEdges(5), Options{})

	var got atomic.Int64
	// Subscribe at one end, publish at the other.
	if _, err := nw.Node(4).Subscribe(pred("price", predicate.Gt, 100), func(ev event.Event) {
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if err := nw.Node(0).Publish(event.New().Set("price", 150)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if got.Load() != 1 {
		t.Fatalf("delivered = %d, want 1", got.Load())
	}
	st := nw.Stats()
	// The event crossed exactly 4 links.
	if st.Forwarded != 4 {
		t.Errorf("Forwarded = %d, want 4", st.Forwarded)
	}
	// Non-matching event is filtered at the publish broker: no forwards.
	if err := nw.Node(0).Publish(event.New().Set("price", 50)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if st2 := nw.Stats(); st2.Forwarded != st.Forwarded {
		t.Errorf("non-matching event was forwarded: %d -> %d", st.Forwarded, st2.Forwarded)
	}
	if got.Load() != 1 {
		t.Errorf("delivered = %d after non-matching publish", got.Load())
	}
}

func TestLocalDeliveryNoForwarding(t *testing.T) {
	nw := newNet(t, 4, StarEdges(4), Options{})
	var got atomic.Int64
	if _, err := nw.Node(2).Subscribe(pred("a", predicate.Eq, 1), func(event.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	// Publish at the subscriber's own broker.
	if err := nw.Node(2).Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if got.Load() != 1 {
		t.Fatalf("delivered = %d", got.Load())
	}
	if st := nw.Stats(); st.Forwarded != 0 {
		t.Errorf("local publish forwarded %d copies", st.Forwarded)
	}
}

func TestStarFanoutToMultipleSubscribers(t *testing.T) {
	nw := newNet(t, 6, StarEdges(6), Options{})

	var mu sync.Mutex
	gotBy := map[int]int{}
	for _, at := range []int{1, 2, 3} {
		if _, err := nw.Node(at).Subscribe(pred("topic", predicate.Eq, "x"), func(event.Event) {
			mu.Lock()
			gotBy[at]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Node 4 subscribes to something else.
	var other atomic.Int64
	if _, err := nw.Node(4).Subscribe(pred("topic", predicate.Eq, "y"), func(event.Event) { other.Add(1) }); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if err := nw.Node(5).Publish(event.New().Set("topic", "x")); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	mu.Lock()
	defer mu.Unlock()
	for _, at := range []int{1, 2, 3} {
		if gotBy[at] != 1 {
			t.Errorf("node %d delivered %d, want 1", at, gotBy[at])
		}
	}
	if other.Load() != 0 {
		t.Errorf("topic-y subscriber got %d events", other.Load())
	}
	// 5→hub, hub→{1,2,3}: 4 link crossings, not 5 (node 4 pruned).
	if st := nw.Stats(); st.Forwarded != 4 {
		t.Errorf("Forwarded = %d, want 4 (pruned fanout)", st.Forwarded)
	}
}

func TestUnsubscribeNetworkWide(t *testing.T) {
	nw := newNet(t, 3, LineEdges(3), Options{})
	var got atomic.Int64
	ref, err := nw.Node(2).Subscribe(pred("a", predicate.Gt, 0), func(event.Event) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if err := nw.Node(0).Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if got.Load() != 1 {
		t.Fatalf("delivered = %d", got.Load())
	}
	if err := nw.Node(2).Unsubscribe(ref); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	before := nw.Stats().Forwarded
	if err := nw.Node(0).Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	if got.Load() != 1 {
		t.Errorf("delivered after unsubscribe = %d", got.Load())
	}
	if after := nw.Stats().Forwarded; after != before {
		t.Errorf("event forwarded after unsubscribe: %d -> %d", before, after)
	}
	if err := nw.Node(2).Unsubscribe(ref); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("double unsubscribe err = %v", err)
	}
}

func TestComplexBooleanSubscriptionAcrossOverlay(t *testing.T) {
	nw := newNet(t, 7, TreeEdges(7, 2), Options{})
	// The paper's Fig. 1 subscription registered at a leaf.
	expr := boolexpr.NewAnd(
		boolexpr.NewOr(pred("a", predicate.Gt, 10), pred("a", predicate.Le, 5), pred("b", predicate.Eq, 1)),
		boolexpr.NewOr(pred("c", predicate.Le, 20), pred("c", predicate.Eq, 30), pred("d", predicate.Eq, 5)),
	)
	var got atomic.Int64
	if _, err := nw.Node(6).Subscribe(expr, func(event.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	for _, p := range []struct {
		at int
		ev event.Event
	}{
		{3, event.New().Set("a", 3).Set("c", 30)}, // matches
		{3, event.New().Set("a", 7).Set("c", 30)}, // left OR fails
		{5, event.New().Set("b", 1).Set("d", 5)},  // matches
	} {
		if err := nw.Node(p.at).Publish(p.ev); err != nil {
			t.Fatal(err)
		}
	}
	nw.Flush()
	if got.Load() != 2 {
		t.Errorf("delivered = %d, want 2", got.Load())
	}
}

func TestAPIValidation(t *testing.T) {
	nw, err := NewNetwork(2, LineEdges(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n0 := nw.Node(0)
	if _, err := n0.Subscribe(nil, func(event.Event) {}); err == nil {
		t.Error("nil expr accepted")
	}
	if _, err := n0.Subscribe(pred("a", predicate.Eq, 1), nil); err == nil {
		t.Error("nil handler accepted")
	}
	// Uncompilable subscription is rejected synchronously.
	xs := make([]boolexpr.Expr, 256)
	for i := range xs {
		xs[i] = pred("a", predicate.Eq, i)
	}
	if _, err := n0.Subscribe(boolexpr.And{Xs: xs}, func(event.Event) {}); err == nil {
		t.Error("uncompilable subscription accepted")
	}
	// A subscription is retracted at its home node only.
	ref, err := n0.Subscribe(pred("a", predicate.Eq, 1), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Node(1).Unsubscribe(ref); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("foreign unsubscribe err = %v", err)
	}
	nw.Close()
	if _, err := n0.Subscribe(pred("a", predicate.Eq, 1), func(event.Event) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close err = %v", err)
	}
	if err := n0.Publish(event.New()); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close err = %v", err)
	}
	if err := n0.Unsubscribe(ref); !errors.Is(err, ErrClosed) {
		t.Errorf("Unsubscribe after close err = %v", err)
	}
	nw.Close() // idempotent
}

// TestNetworkRejectsFiltersTheWireCannotCarry pins that the in-process
// network refuses, synchronously, a filter whose sublang text does not
// parse back: the links carry filters as text, exactly as over TCP.
func TestNetworkRejectsFiltersTheWireCannotCarry(t *testing.T) {
	nw := newNet(t, 2, LineEdges(2), Options{})
	for _, f := range []boolexpr.Expr{
		pred("two words", predicate.Eq, 1),
		boolexpr.NewAnd(pred("and", predicate.Eq, 1), pred("b", predicate.Eq, 2)),
	} {
		if _, err := nw.Node(0).Subscribe(f, func(event.Event) {}); err == nil {
			t.Errorf("filter %s accepted; its wire text does not parse back", f)
		}
	}
	nw.Flush()
	if st := nw.Stats(); st.SubscriptionMsgs != 0 || st.InstallErrors != 0 {
		t.Errorf("a rejected filter reached the links: %+v", st)
	}
}

func TestManyEventsManySubscribersUnderRace(t *testing.T) {
	nw := newNet(t, 15, TreeEdges(15, 2), Options{})

	var delivered atomic.Int64
	for i := 0; i < 30; i++ {
		if _, err := nw.Node(i%15).Subscribe(pred("v", predicate.Gt, i*10), func(event.Event) {
			delivered.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	nw.Flush()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := nw.Node((w*50 + i) % 15).Publish(event.New().Set("v", 145)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	nw.Flush()
	// v=145 matches thresholds 0..140 → subscriptions 0..14 → 15 matches
	// per event × 200 events.
	if got := delivered.Load(); got != 15*200 {
		t.Errorf("delivered = %d, want %d", got, 15*200)
	}
	if st := nw.Stats(); st.Published != 200 {
		t.Errorf("Published = %d", st.Published)
	}
}

// TestStatsCoherenceUnderChurn is the snapshot-coherence property: on a
// two-node line (one next-hop link per event, so every forward has a
// distinct publication behind it), concurrently sampled Stats must always
// reconcile — Forwarded ≤ Published and Delivered ≤ Published — because
// Network.Stats reads every node's effects before any node's Published.
// Run under -race in CI.
func TestStatsCoherenceUnderChurn(t *testing.T) {
	nw := newNet(t, 2, LineEdges(2), Options{})
	if _, err := nw.Node(1).Subscribe(pred("k", predicate.Gt, int64(-1)), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()

	const publishers, perP = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Uint64
	wg.Add(1)
	go func() { // sampler
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := nw.Stats()
			if st.Forwarded > st.Published {
				violations.Add(1)
				t.Errorf("incoherent snapshot: Forwarded %d > Published %d", st.Forwarded, st.Published)
				return
			}
			if st.Delivered > st.Published {
				violations.Add(1)
				t.Errorf("incoherent snapshot: Delivered %d > Published %d", st.Delivered, st.Published)
				return
			}
		}
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				ev := event.New().Set("k", int64(p*perP+i))
				if err := nw.Node(0).Publish(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Let the sampler see the whole storm, then stop it and wait for all
	// goroutines before checking totals at quiescence.
	nw.Flush()
	close(stop)
	wg.Wait()
	nw.Flush()
	st := nw.Stats()
	if st.Published != publishers*perP {
		t.Errorf("Published = %d, want %d", st.Published, publishers*perP)
	}
	if st.Forwarded != publishers*perP || st.Delivered != publishers*perP {
		t.Errorf("Forwarded/Delivered = %d/%d, want %d each", st.Forwarded, st.Delivered, publishers*perP)
	}
	if violations.Load() != 0 {
		t.Fatalf("%d incoherent snapshots observed", violations.Load())
	}
}

// TestRegistrationStormInboxOne is the deadlock regression test for the
// inbox cycle: with an inbox of capacity 1 on a line topology, any
// forwarding design where a broker goroutine blocks sending into a
// neighbour's inbox wedges immediately — node A mid-send into B's full
// inbox while B is mid-send into A's. Spill-queue forwarding must survive
// an unthrottled registration storm (plus unsubscribes and publishes,
// which ride the same links) without any quiescing, and deliver a correct
// routing state at the end.
func TestRegistrationStormInboxOne(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		name := "plain"
		if coverOn {
			name = "cover"
		}
		t.Run(name, func(t *testing.T) {
			goroutinesBefore := runtime.NumGoroutine()
			const (
				nodes   = 8
				storms  = 4
				perGoro = 300
			)
			nw, err := newNetwork(nodes, LineEdges(nodes), Options{Cover: coverOn}, 1)
			if err != nil {
				t.Fatal(err)
			}

			// The storm must finish well before the suite timeout; run it
			// under a watchdog so a deadlock reports as a failure here, not
			// as an opaque test-binary timeout panic.
			done := make(chan struct{})
			var delivered atomic.Int64
			type kept struct {
				ref SubRef
				at  int
			}
			survivors := make([][]kept, storms)
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for g := 0; g < storms; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < perGoro; i++ {
							at := (g + i) % nodes
							b := nw.Node(at)
							ref, err := b.Subscribe(band(g%3, 10*(1+i%12)), func(event.Event) {
								delivered.Add(1)
							})
							if err != nil {
								t.Error(err)
								return
							}
							if i%3 == 0 {
								if err := b.Unsubscribe(ref); err != nil {
									t.Error(err)
									return
								}
							} else {
								survivors[g] = append(survivors[g], kept{ref: ref, at: at})
							}
							if i%7 == 0 {
								if err := b.Publish(bandEvent(g%3, 5)); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				nw.Flush()
			}()
			select {
			case <-done:
			case <-time.After(90 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("registration storm deadlocked; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
			}

			// The storm's survivors are fully routed. Without covering every
			// broker knows every live subscription; with it a broker at
			// least holds the survivors homed at itself (remote knowledge is
			// legitimately pruned by coverers). Flush ordered the brokers'
			// routing work before these reads.
			live := 0
			for _, ks := range survivors {
				live += len(ks)
			}
			for _, ks := range survivors {
				for _, k := range ks {
					if !nw.Node(k.at).rt.HasRoute(k.ref.id) {
						t.Errorf("node %d lost surviving subscription %d", k.at, k.ref.id)
					}
				}
			}
			for i, b := range nw.nodes {
				got := b.rt.NumRoutes()
				if !coverOn && got != live {
					t.Errorf("node %d routes = %d, want %d", i, got, live)
				}
				if coverOn && got > live {
					t.Errorf("node %d routes = %d > %d live", i, got, live)
				}
			}
			st := nw.Stats()
			if coverOn && st.CoverSuppressed == 0 {
				t.Error("covering storm never suppressed a forward; the test lost its teeth")
			}
			if st.HopDropped != 0 || st.InstallErrors != 0 || st.Shed != 0 {
				t.Errorf("storm dropped or failed messages: %+v", st)
			}
			nw.Close()
			assertNoGoroutineLeak(t, goroutinesBefore)
		})
	}
}

// TestFlushReturnsAfterClose pins Flush's liveness: messages queued when
// the network closes are discarded, so a Flush that raced Close (or
// follows it) must return instead of waiting on counts that will never
// balance.
func TestFlushReturnsAfterClose(t *testing.T) {
	nw, err := newNetwork(4, LineEdges(4), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Park messages in the network: a slow handler wedges node 3's broker
	// goroutine while more publishes pile into inboxes and spill queues.
	block := make(chan struct{})
	var once sync.Once
	if _, err := nw.Node(3).Subscribe(pred("p", predicate.Gt, 0), func(event.Event) {
		once.Do(func() { <-block })
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()
	for i := 0; i < 64; i++ {
		if err := nw.Node(0).Publish(event.New().Set("p", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The handler keeps the first event it gets until block closes, so the
	// network cannot be quiescent before then.
	if quiescent(nw.nodes) {
		t.Fatal("quiescent behind a wedged handler")
	}

	flushed := make(chan struct{})
	go func() {
		nw.Flush()
		close(flushed)
	}()
	close(block) // free the handler so Close can join the broker goroutine
	nw.Close()
	<-flushed
	nw.Flush() // post-Close Flush returns immediately too
}

// TestCloseReleasesGoroutines asserts that every broker, reader, writer
// and pinger goroutine exits on Close even with traffic still queued.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	nw, err := NewNetwork(15, TreeEdges(15, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := nw.Node(i%15).Subscribe(band(i%3, 100), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := nw.Node(i % 15).Publish(bandEvent(i%3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	nw.Close() // no Flush: close with work still in flight
	assertNoGoroutineLeak(t, before)
}
