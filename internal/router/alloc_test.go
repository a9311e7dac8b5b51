//go:build !race

// Allocation budget for the federation path's event entry point. Race
// instrumentation changes allocation counts (sync.Pool drops items), so
// the budget is enforced in non-race runs only, like core's and broker's.

package router

import (
	"testing"

	"noncanon/internal/event"
)

// countSends counts sends without retaining them, so the links' senders
// contribute no allocation to the budget.
type countSends struct{ n int }

func (c *countSends) send(int, Msg) { c.n++ }

// TestHandleEventMsgZeroAlloc pins the steady-state cost of routing one
// event through Handle: the broker matches into its pooled buffer and its
// sinks run inline, so neither a local delivery nor a forward over one
// link allocates.
func TestHandleEventMsgZeroAlloc(t *testing.T) {
	cases := []struct {
		name    string
		nextHop int // where the matching subscription lives: -1 local, else a link
	}{
		{"local delivery", -1},
		{"one-link forward", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &countSends{}
			r := New(Config{Broker: newBroker()})
			addLinks(r, 2, tr.send)
			delivered := 0
			if err := r.subscribe(1, band(1, 100), func(event.Event) { delivered++ }, c.nextHop); err != nil {
				t.Fatal(err)
			}
			tr.n = 0
			m := Msg{Kind: Event, Ev: bandEvent(1, 10), Trace: Trace{ID: 1, OriginNanos: 1}}
			r.Handle(m, nil, 0) // warm the broker's match buffer and the engine's scratch pool
			allocs := testing.AllocsPerRun(1000, func() { r.Handle(m, nil, 0) })
			if allocs != 0 {
				t.Errorf("Handle allocates %.1f per event, want 0", allocs)
			}
			// The warm-up call, AllocsPerRun's own warm-up run, and the 1000 measured.
			if delivered+tr.n != 1002 {
				t.Errorf("routed %d local + %d forwarded, want 1002 in total", delivered, tr.n)
			}
		})
	}
}
