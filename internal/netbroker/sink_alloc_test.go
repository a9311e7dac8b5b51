//go:build !race

package netbroker

import (
	"net"
	"runtime"
	"testing"
	"time"

	"noncanon/internal/event"
)

// discardConn is a socket that accepts everything at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestSinkDeliverAllocBudget: in the steady state a delivery into a
// connection sink — frame built in place in the outbound buffer, writer
// started on a bound method value, buffers swapped not made — allocates
// nothing, and neither does the write that carries it out, nor a delivery
// refused because the connection holds its bound while its writer is
// stuck in a write.
func TestSinkDeliverAllocBudget(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	ev := event.New().Set("k", 1).Set("sym", "ACME").Set("px", 101.5)
	t.Run("burst of 64", func(t *testing.T) {
		c := sinkConn(t, srv, discardConn{}, 64)
		defer c.cleanup()
		burst := func() {
			for h := uint64(1); h <= 64; h++ {
				if !c.Deliver(h, ev) {
					t.Fatal("delivery refused")
				}
			}
			for idle := false; !idle; runtime.Gosched() { // let the writer finish
				c.mu.Lock()
				idle = !c.kicked
				c.mu.Unlock()
			}
		}
		for i := 0; i < 8; i++ { // both buffers grown, goroutine structs recycled
			burst()
		}
		if avg := testing.AllocsPerRun(200, burst); avg != 0 {
			t.Errorf("a burst of 64 deliveries allocates %.1f, budget 0", avg)
		}
	})
	t.Run("refused at the bound", func(t *testing.T) {
		hc := newHeldConn(t)
		c := sinkConn(t, srv, hc, 1)
		defer c.cleanup()
		defer close(hc.gate)   // runs first: lets the held write through
		for c.Deliver(1, ev) { // up to the bound, behind the held write
		}
		if avg := testing.AllocsPerRun(200, func() {
			if c.Deliver(1, ev) {
				t.Fatal("delivery past the bound accepted")
			}
		}); avg != 0 {
			t.Errorf("a refused delivery allocates %.1f, budget 0", avg)
		}
	})
}
