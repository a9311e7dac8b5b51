package netoverlay

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"noncanon/internal/router"
	"noncanon/internal/wire"
)

// countingConn records the length of every Write on the wrapped
// connection; read it once the writer has exited.
type countingConn struct {
	net.Conn
	writes []int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, len(b))
	return c.Conn.Write(b)
}

// TestPeerWriterCoalescesBursts queues messages before a link's writer
// starts and checks that it drains them in bursts: the far side reads
// exactly the bytes one WriteFrame per message would have written, in FIFO
// order, in ⌈bytes / burstBytes⌉ Writes give or take one. Every Write but
// the last holds at least burstBytes, and none more than that plus one
// frame.
func TestPeerWriterCoalescesBursts(t *testing.T) {
	pad := strings.Repeat("x", 1500)
	cases := []struct {
		name string
		n    int
		msg  func(i int) router.Msg
	}{
		{"one ping", 1, func(int) router.Msg { return router.Msg{} }},
		{"mixed", 500, func(i int) router.Msg {
			switch i % 5 {
			case 0:
				return router.Msg{Kind: router.Sub, SubID: uint64(i), Expr: band(i, 100)}
			case 1:
				return router.Msg{Kind: router.Unsub, SubID: uint64(i - 1)}
			case 2:
				return router.Msg{Kind: router.Event, Ev: bandEvent(1, i), Hops: 1}
			case 3:
				return router.Msg{Kind: router.Event, Ev: bandEvent(2, i), Hops: 2,
					Trace: router.Trace{ID: uint64(i), OriginNanos: int64(i) << 20}}
			}
			return router.Msg{}
		}},
		{"large events", 60, func(i int) router.Msg {
			return router.Msg{Kind: router.Event, Ev: bandEvent(1, i).Set("pad", pad)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := startBrokerOpts(t, Options{NodeID: 1, PingInterval: -1, ReadIdleTimeout: -1, Logf: t.Logf})
			near, far := net.Pipe()
			defer far.Close()
			nc := &countingConn{Conn: near}
			p := &peer{
				b:      b,
				nc:     nc,
				nodeID: 2,
				out:    router.NewFlowQueue(router.EstimateMsgBytes, 0, 0),
				fwd:    b.reg.Counter(peerInstrument("netoverlay_peer_forwarded_total", 2)),
				done:   make(chan struct{}),
			}
			var want bytes.Buffer
			var types []byte
			maxFrame, events := 0, uint64(0)
			for i := 0; i < tc.n; i++ {
				m := tc.msg(i)
				p.Send(m)
				frame, err := appendFrame(nil, m)
				if err != nil {
					t.Fatal(err)
				}
				// Today's one-frame-per-Write encoding is the reference.
				if err := wire.WriteFrame(&want, frame[4], frame[5:]); err != nil {
					t.Fatal(err)
				}
				types = append(types, frame[4])
				maxFrame = max(maxFrame, len(frame))
				if m.Kind == router.Event {
					events++
				}
			}

			exited := make(chan struct{})
			b.wg.Add(1)
			go func() { p.writeLoop(); close(exited) }()
			got := make([]byte, want.Len())
			far.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang, if the writer stops short
			if _, err := io.ReadFull(far, got); err != nil {
				t.Fatal(err)
			}
			p.out.Close()
			<-exited

			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("the bursts are not the concatenation of the messages' frames")
			}
			br := bufio.NewReader(bytes.NewReader(got))
			for i, typ := range types {
				gotTyp, _, _, err := wire.ReadFrameInto(br, nil)
				if err != nil || gotTyp != typ {
					t.Fatalf("frame %d: type 0x%02x, %v; want 0x%02x", i, gotTyp, err, typ)
				}
			}
			writes := len(nc.writes)
			bursts := (want.Len() + burstBytes - 1) / burstBytes
			if writes < bursts-1 || writes > bursts+1 {
				t.Errorf("%d frames, %d bytes left in %d Writes, want %d ± 1", tc.n, want.Len(), writes, bursts)
			}
			for i, w := range nc.writes {
				if w > burstBytes+maxFrame {
					t.Errorf("Write %d is %d bytes, over the %d-byte burst cap plus one %d-byte frame", i, w, burstBytes, maxFrame)
				}
				if i < writes-1 && w < burstBytes {
					t.Errorf("Write %d is %d bytes, under the %d-byte burst cap with messages still queued", i, w, burstBytes)
				}
			}
			if n := uint64(tc.n); p.pushed.Load() != n || p.written.Load() != n || p.drained.Load() != n {
				t.Errorf("pushed %d, written %d, drained %d; want %d each", p.pushed.Load(), p.written.Load(), p.drained.Load(), n)
			}
			if w := b.peerWrites.Value(); w != uint64(writes) {
				t.Errorf("netoverlay_peer_writes_total = %d, want %d Writes", w, writes)
			}
			if f := p.fwd.Value(); f != events {
				t.Errorf("forwarded = %d, want %d events", f, events)
			}
		})
	}
}

// TestIdleTimeoutFiresAfterBurst checks the reader's idle deadline, which
// is renewed only before a read that can block. A peer streams pings cut
// mid-frame, so every blocking read finds part of a frame buffered: the
// deadline must be renewed anyway, and the busy peer stays attached for
// several idle windows. Then one multi-frame burst and silence: after
// decoding the buffered burst the reader must still arm the deadline, and
// the peer is detached.
func TestIdleTimeoutFiresAfterBurst(t *testing.T) {
	const idle = 250 * time.Millisecond
	hub := startBrokerOpts(t, Options{NodeID: 1, ReadIdleTimeout: idle, PingInterval: -1, Logf: t.Logf})
	nc, err := net.Dial("tcp", hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.AppendHello(nil, wire.FederationVersion, 2)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if typ, _, _, err := wire.ReadFrameInto(br, nil); err != nil || typ != wire.MsgHello {
		t.Fatalf("hello: type 0x%02x, %v", typ, err)
	}

	// Each write carries the tail of the ping the last one cut, 50 pings
	// and the head of the next.
	ping, _ := wire.EndFrame(wire.BeginFrame(nil, wire.MsgPing), 0)
	var pings []byte
	for i := 0; i < 50; i++ {
		pings = append(pings, ping...)
	}
	head := append(append([]byte(nil), pings...), ping[:2]...)
	next := append(append(append([]byte(nil), ping[2:]...), pings...), ping[:2]...)
	for start := time.Now(); time.Since(start) < 4*idle; time.Sleep(idle / 10) {
		if _, err := nc.Write(head); err != nil {
			t.Fatal(err)
		}
		head = next
	}
	if peers := hub.Stats().Peers; peers != 1 {
		t.Fatalf("hub peers = %d while the peer streamed, want 1", peers)
	}

	// The burst: the rest of the cut ping, more pings, then the
	// subscriptions that prove the hub decoded all of it.
	burst := append(append([]byte(nil), ping[2:]...), pings...)
	for i := 1; i <= 10; i++ {
		at := len(burst)
		burst = wire.AppendSubForward(wire.BeginFrame(burst, wire.MsgSubForward), 2<<32|uint64(i), band(i, 100).String())
		burst, _ = wire.EndFrame(burst, at)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	// An event matching the last subscription comes back once the whole
	// burst is routed; from here on this side sends nothing.
	for {
		if err := hub.Publish(bandEvent(10, 5)); err != nil {
			t.Fatal(err)
		}
		Flush(hub)
		if hub.Stats().Forwarded > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, _, err := wire.ReadFrameInto(br, nil); err != nil || typ != wire.MsgEventForward {
		t.Fatalf("forward: type 0x%02x, %v", typ, err)
	}

	silent := time.Now()
	for hub.Stats().Peers != 0 && time.Since(silent) < idle+5*time.Second {
		time.Sleep(10 * time.Millisecond)
	}
	if peers := hub.Stats().Peers; peers != 0 {
		t.Fatalf("hub peers = %d %v after the burst went silent, idle timeout %v", peers, time.Since(silent), idle)
	}
	t.Logf("detached %v after the burst", time.Since(silent))
}
