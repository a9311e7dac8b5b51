package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"noncanon/internal/event"
)

// TestChurnStormExactlyOnce subjects the overlay to a subscribe/unsubscribe
// storm interleaved with a publish storm from multiple goroutines and
// asserts the core routing invariant: subscribers that are stable for the
// whole run receive every matching event exactly once — never zero, never
// twice — regardless of the churn around them. Run under -race this also
// pins the thread-safety of the API surface. Both the plain and the
// covering configuration are exercised.
func TestChurnStormExactlyOnce(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		cover bool
	}{
		{name: "plain", cover: false},
		{name: "cover", cover: true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			const (
				nodes      = 9
				stableSubs = 6
				events     = 400
				churners   = 3
				churnIters = 120
			)
			nw, err := NewTree(nodes, 2, Config{Cover: cfg.cover, InboxSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()

			// Stable subscribers: one broad band per category so every event
			// in that category matches; delivery counts are per event seq.
			type counterMap struct {
				mu   sync.Mutex
				seen map[int64]int
			}
			counters := make([]*counterMap, stableSubs)
			for i := range counters {
				counters[i] = &counterMap{seen: map[int64]int{}}
			}
			for i := 0; i < stableSubs; i++ {
				cm := counters[i]
				_, err := nw.Subscribe(NodeID(i%nodes), band(i%3, 1000), func(ev event.Event) {
					v, _ := ev.Get("seq")
					cm.mu.Lock()
					cm.seen[v.Int()]++
					cm.mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			nw.Flush()

			// Storm: churners cycle volatile subscriptions (covering and
			// covered ones) while publishers inject every event once.
			var wg sync.WaitGroup
			var churnOps atomic.Int64
			stop := make(chan struct{})
			for c := 0; c < churners; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c) + 100))
					for i := 0; i < churnIters; i++ {
						ref, err := nw.Subscribe(
							NodeID(rng.Intn(nodes)),
							band(rng.Intn(3), 10*(1+rng.Intn(12))),
							func(event.Event) {},
						)
						if err != nil {
							t.Error(err)
							return
						}
						if err := nw.Unsubscribe(ref); err != nil {
							t.Error(err)
							return
						}
						churnOps.Add(2)
						select {
						case <-stop:
							return
						default:
						}
					}
				}(c)
			}
			pubErr := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				for seq := int64(1); seq <= events; seq++ {
					ev := bandEvent(int(seq)%3, rng.Intn(900)).Set("seq", seq)
					if err := nw.Publish(NodeID(rng.Intn(nodes)), ev); err != nil {
						pubErr <- err
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			select {
			case err := <-pubErr:
				t.Fatal(err)
			default:
			}
			nw.Flush()

			// Every stable subscriber must have seen each of its category's
			// events exactly once.
			for i, cm := range counters {
				cat := i % 3
				cm.mu.Lock()
				for seq := int64(1); seq <= events; seq++ {
					want := 0
					if int(seq)%3 == cat {
						want = 1
					}
					if got := cm.seen[seq]; got != want {
						cm.mu.Unlock()
						t.Fatalf("stable subscriber %d: event %d delivered %d times, want %d (churn ops: %d)",
							i, seq, got, want, churnOps.Load())
					}
				}
				cm.mu.Unlock()
			}
			if churnOps.Load() == 0 {
				t.Error("no churn happened; the storm lost its teeth")
			}
		})
	}
}

// TestChurnUnsubscribeDuringFlood interleaves an unsubscribe directly
// behind its own subscribe (no quiescing) many times: the network must end
// every round with no routes left anywhere and deliver nothing afterwards.
func TestChurnUnsubscribeDuringFlood(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("cover=%v", coverOn), func(t *testing.T) {
			nw, err := NewLine(6, Config{Cover: coverOn})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			var delivered atomic.Int64
			for i := 0; i < 200; i++ {
				ref, err := nw.Subscribe(0, band(1, 100+i), func(event.Event) {
					delivered.Add(1)
				})
				if err != nil {
					t.Fatal(err)
				}
				// Immediately retract while the flood may still be in flight.
				if err := nw.Unsubscribe(ref); err != nil {
					t.Fatal(err)
				}
			}
			nw.Flush()
			for _, nd := range nw.nodes {
				if n := nd.rt.NumRoutes(); n != 0 {
					t.Fatalf("node %d still holds %d routes after churn", nd.id, n)
				}
				if nd.eng.NumSubscriptions() != 0 {
					t.Fatalf("node %d engine still holds %d subscriptions", nd.id, nd.eng.NumSubscriptions())
				}
				if coverOn {
					for i := 0; i < nd.rt.NumLinks(); i++ {
						if filters, frontier := nd.rt.CoverState(i); filters != 0 || frontier != 0 {
							t.Fatalf("node %d link %d covering poset leaked: %d filters, %d frontier",
								nd.id, i, filters, frontier)
						}
					}
				}
			}
			if err := nw.Publish(5, bandEvent(1, 5)); err != nil {
				t.Fatal(err)
			}
			nw.Flush()
			if delivered.Load() != 0 {
				t.Errorf("delivered = %d events to unsubscribed handlers", delivered.Load())
			}
		})
	}
}
