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
// nothing, and neither does the write that carries it out.
func TestSinkDeliverAllocBudget(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	c := sinkConn(t, srv, discardConn{}, 64)
	defer c.cleanup()
	ev := event.New().Set("k", 1).Set("sym", "ACME").Set("px", 101.5)
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
}
