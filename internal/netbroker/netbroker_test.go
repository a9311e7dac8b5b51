package netbroker

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/wire"
)

// startServer runs a server on a loopback listener and returns its address
// and a shutdown func.
func startServer(t *testing.T, opts ServerOptions) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String(), srv
}

func recvEvent(t *testing.T, ch <-chan event.Event) event.Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for event")
		return event.Event{}
	}
}

func TestSubscribePublishRoundTrip(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	sub, err := cli.Subscribe(`price > 100 and sym = "ACME"`)
	if err != nil {
		t.Fatal(err)
	}
	want := event.New().Set("price", 150).Set("sym", "ACME")
	n, err := cli.Publish(want)
	if err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	got := recvEvent(t, sub.C())
	if !got.Equal(want) {
		t.Errorf("received %s, want %s", got, want)
	}
	// Non-matching event.
	if n, err := cli.Publish(event.New().Set("price", 50).Set("sym", "ACME")); err != nil || n != 0 {
		t.Errorf("Publish = %d, %v", n, err)
	}
}

func TestTwoClients(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	pubCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()

	sub, err := subCli.Subscribe(`kind = "alert" and (sev >= 3 or source = "core")`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubCli.Publish(event.New().Set("kind", "alert").Set("sev", 5)); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, sub.C())
	if v, _ := ev.Get("sev"); v.Int() != 5 {
		t.Errorf("event = %s", ev)
	}
}

func TestUnsubscribeStopsEvents(t *testing.T) {
	addr, srv := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	sub, err := cli.Subscribe(`a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("channel should close on unsubscribe")
	}
	if n, err := cli.Publish(event.New().Set("a", 1)); err != nil || n != 0 {
		t.Errorf("Publish after unsubscribe = %d, %v", n, err)
	}
	if srv.Broker().NumSubscriptions() != 0 {
		t.Errorf("server still has %d subscriptions", srv.Broker().NumSubscriptions())
	}
	// Idempotent.
	if err := sub.Unsubscribe(); err != nil {
		t.Errorf("second Unsubscribe: %v", err)
	}
}

func TestServerRejectsBadSubscription(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(`a = `); !errors.Is(err, ErrRemote) {
		t.Errorf("bad subscription err = %v", err)
	}
	// Connection survives the error.
	if err := cli.Ping(); err != nil {
		t.Errorf("Ping after error: %v", err)
	}
}

func TestClientDisconnectCleansSubscriptions(t *testing.T) {
	addr, srv := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Subscribe(`a = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Subscribe(`b = 2`); err != nil {
		t.Fatal(err)
	}
	if srv.Broker().NumSubscriptions() != 2 {
		t.Fatalf("subscriptions = %d", srv.Broker().NumSubscriptions())
	}
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Broker().NumSubscriptions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server kept %d subscriptions after disconnect", srv.Broker().NumSubscriptions())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMalformedFrameDisconnects(t *testing.T) {
	addr, srv := startServer(t, ServerOptions{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A subscribe request without a request ID is malformed; the server
	// drops the connection.
	if err := wire.WriteFrame(nc, wire.MsgSubscribe, []byte{0x01}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := nc.Read(buf); err == nil {
		// Server may send an error frame first; the connection must close
		// eventually either way.
		if _, err := nc.Read(buf); err == nil {
			t.Error("connection survived malformed frame")
		}
	}
	_ = srv
}

func TestUnknownMessageTypeGetsError(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.roundTrip(0x7F, wire.MsgOK, nil)
	if !errors.Is(err, ErrRemote) {
		t.Errorf("unknown type resp=%+v err = %v", resp, err)
	}
}

func TestPing(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{Broker: broker.Options{QueueSize: 512}})

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			sub, err := cli.Subscribe(`a >= 0`)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := cli.Publish(event.New().Set("a", i*100+j)); err != nil {
					t.Error(err)
					return
				}
			}
			// Every client sees at least its own events (cross-client
			// deliveries may be dropped if buffers fill, counted not lost).
			seen := 0
			timeout := time.After(10 * time.Second)
			for seen < 20 {
				select {
				case _, ok := <-sub.C():
					if !ok {
						t.Error("event channel closed early")
						return
					}
					seen++
				case <-timeout:
					t.Errorf("client %d saw only %d events (dropped %d)", i, seen, sub.Dropped())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelPublishersWithChurn drives the concurrent engine read path
// through the network layer: half the clients publish continuously while the
// other half register and remove subscriptions, so matching under the read
// lock overlaps store mutation under the write lock. Run with -race.
func TestParallelPublishersWithChurn(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{Broker: broker.Options{QueueSize: 512}})

	const pairs = 4
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		i := i
		wg.Add(2)
		go func() { // publisher
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for j := 0; j < 50; j++ {
				if _, err := cli.Publish(event.New().Set("a", i*100+j)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() { // churner
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for j := 0; j < 25; j++ {
				sub, err := cli.Subscribe(`a >= 0 and a < 1000`)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sub.Unsubscribe(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerCloseFailsClients(t *testing.T) {
	addr, srv := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sub, err := cli.Subscribe(`a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The subscription channel closes and subsequent requests fail.
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Error("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel not closed on server shutdown")
	}
	if err := cli.Ping(); err == nil {
		t.Error("Ping succeeded after server close")
	}
}

func TestClientOverPipe(t *testing.T) {
	// NewClient works over any net.Conn; exercise with net.Pipe and a
	// manual server loop speaking the wire protocol.
	cEnd, sEnd := net.Pipe()
	defer sEnd.Close()
	go func() {
		for {
			typ, payload, err := wire.ReadFrame(sEnd)
			if err != nil {
				return
			}
			reqID, _, _ := wire.ReadU32(payload)
			if typ == wire.MsgPing {
				wire.WriteFrame(sEnd, wire.MsgPong, wire.AppendU32(nil, reqID))
			}
		}
	}()
	cli := NewClient(cEnd)
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeFrameBufferNotKept: one large request grows the connection's
// frame buffer, and the next frame's read does not keep it, so a single
// 512 KB publish does not pin 512 KB for the life of the connection.
func TestLargeFrameBufferNotKept(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	near, far := net.Pipe()
	c := newConn(srv, near)
	done := make(chan struct{})
	go func() { defer close(done); c.serve() }()
	defer func() { far.Close(); <-done }()

	publish := func(reqID uint32, pad int) {
		t.Helper()
		ev := event.New().Set("pad", strings.Repeat("x", pad))
		if err := wire.WriteFrame(far, wire.MsgPublish, wire.AppendEvent(wire.AppendU32(nil, reqID), ev)); err != nil {
			t.Fatal(err)
		}
		// The reply leaves after serve stored the frame buffer: reading it
		// orders this goroutine's look at c.rbuf behind that store.
		if typ, _, err := wire.ReadFrame(far); err != nil || typ != wire.MsgPublished {
			t.Fatalf("reply to publish %d: type 0x%02x, %v", reqID, typ, err)
		}
	}
	publish(1, 512<<10)
	publish(2, 16)
	if n := cap(c.rbuf); n > 64<<10 {
		t.Errorf("frame buffer holds %d B after a small frame, want <= %d", n, 64<<10)
	}
}
