package netbroker

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/chaos"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// heldConn is the socket of a connection under test: it keeps what is
// written to it, one entry per Write, announces every Write on entered as
// it begins, and holds it there until the test lets one through on gate
// (or closes gate to let all through).
type heldConn struct {
	net.Conn // a pipe end nobody reads: deadlines, Close, RemoteAddr
	entered  chan struct{}
	gate     chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func newHeldConn(t *testing.T) *heldConn {
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })
	return &heldConn{Conn: near, entered: make(chan struct{}, 1024), gate: make(chan struct{})}
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.entered <- struct{}{}
	<-h.gate
	h.mu.Lock()
	h.writes = append(h.writes, append([]byte(nil), p...))
	h.mu.Unlock()
	return len(p), nil
}

func mustParse(t testing.TB, text string) boolexpr.Expr {
	t.Helper()
	x, err := sublang.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// sinkConn builds a server-side connection over nc with subs subscriptions
// to `k = 1`, handles 1..subs, and no reader loop: the test is the reader.
func sinkConn(t testing.TB, srv *Server, nc net.Conn, subs int) *conn {
	t.Helper()
	c := newConn(srv, nc)
	for h := uint64(1); h <= uint64(subs); h++ {
		sub, err := c.sink.Subscribe(mustParse(t, `k = 1`), h)
		if err != nil {
			t.Fatal(err)
		}
		c.subs = append(c.subs, sub)
	}
	return c
}

// TestCoalescedDeliveriesLeaveInOneWrite: deliveries appended while the
// connection's writer is busy leave together, in one Write, as the frames
// they would have been one by one and in the order they were appended; the
// writer counters say the same (frames ÷ flushes is the coalescing factor).
func TestCoalescedDeliveriesLeaveInOneWrite(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(ServerOptions{Broker: broker.Options{Metrics: reg}})
	defer srv.Close()
	hc := newHeldConn(t)
	c := sinkConn(t, srv, hc, 64)

	ev := event.New().Set("k", 1).Set("sym", "ACME").Set("px", 101.5)
	if !c.Deliver(1, event.New().Set("k", 1)) { // takes the writer role
		t.Fatal("primer refused")
	}
	<-hc.entered // the writer is inside Write, held
	for h := uint64(64); h >= 1; h-- {
		if !c.Deliver(h, ev) {
			t.Fatalf("delivery for handle %d refused", h)
		}
	}
	close(hc.gate)
	<-hc.entered // the second Write has begun
	c.cleanup()  // waits for the writer

	if len(hc.writes) != 2 {
		t.Fatalf("%d Writes, want 2: the primer, then the 64 held deliveries together", len(hc.writes))
	}
	r := bytes.NewReader(hc.writes[1])
	for h := uint64(64); h >= 1; h-- {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil || typ != wire.MsgEvent {
			t.Fatalf("frame for handle %d: type 0x%02x, err %v", h, typ, err)
		}
		handle, rest, _ := wire.ReadU64(payload)
		got, tail, err := wire.ReadEvent(rest)
		if err != nil || handle != h || !got.Equal(ev) || len(tail) != 0 {
			t.Fatalf("frame %d carries handle %d, event %s, %d trailing bytes, err %v", 65-h, handle, got, len(tail), err)
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes after the 64th frame", r.Len())
	}
	for name, want := range map[string]uint64{
		"netbroker_frames_written_total":   65,
		"netbroker_flushes_total":          2,
		"netbroker_bytes_written_total":    uint64(len(hc.writes[0]) + len(hc.writes[1])),
		"netbroker_delivery_refused_total": 0,
	} {
		if s, ok := reg.Get(name); !ok || s.Value != want {
			t.Errorf("%s = %d (registered %v), want %d", name, s.Value, ok, want)
		}
	}
	if st := srv.Broker().Stats(); st.Delivered != 65 || st.Dropped != 0 {
		t.Errorf("Stats %+v, want 65 delivered at the socket, none dropped", st)
	}
}

// TestSinkDeliveredCountsAtTheSocket: a delivery is Delivered once its frame
// has been handed to the socket, not when it was appended; what a dead
// connection still held is Dropped, and it takes nothing more.
func TestSinkDeliveredCountsAtTheSocket(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	hc := newHeldConn(t)
	c := sinkConn(t, srv, hc, 1)
	stats := func() broker.Stats { return srv.Broker().Stats() }
	ev := event.New().Set("k", 1)

	c.Deliver(1, ev)
	<-hc.entered // Write 1, one frame, held
	c.Deliver(1, ev)
	c.Deliver(1, ev)
	if st := stats(); st.Delivered != 0 {
		t.Errorf("Delivered = %d with every frame still this side of the socket", st.Delivered)
	}
	hc.gate <- struct{}{} // Write 1 returns
	<-hc.entered          // Write 2, two frames, has begun: Write 1 is accounted
	if st := stats(); st.Delivered != 1 {
		t.Errorf("Delivered = %d after the first Write of one frame", st.Delivered)
	}
	c.Deliver(1, ev) // waits behind Write 2
	c.mu.Lock()
	c.shut() // the connection dies
	c.mu.Unlock()
	if c.Deliver(1, ev) {
		t.Error("a dead connection took a delivery")
	}
	close(hc.gate)
	c.cleanup()
	if st := stats(); st.Delivered != 3 || st.Dropped != 1 {
		t.Errorf("Stats %+v, want 3 delivered (written) and 1 dropped (held at the end)", st)
	}
}

// TestGoroutinesPerConnectionNotPerSubscription: 10 000 subscriptions on one
// TCP connection cost the server a constant number of goroutines, and they
// are gone after Close.
func TestGoroutinesPerConnectionNotPerSubscription(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	one := runtime.NumGoroutine() // accept loop, plus this connection's reader once accepted

	// Pipelined, as a loading client would: all requests, then all replies.
	const subs = 10000
	var req []byte
	for i := 1; i <= subs; i++ {
		at := len(req)
		req = wire.AppendString(wire.AppendU32(wire.BeginFrame(req, wire.MsgSubscribe), uint32(i)), `k = 1`)
		req, _ = wire.EndFrame(req, at)
	}
	go nc.Write(req)
	var buf []byte
	for i := 1; i <= subs; i++ {
		var typ byte
		if typ, _, buf, err = wire.ReadFrameInto(nc, buf); err != nil || typ != wire.MsgSubscribed {
			t.Fatalf("reply %d: type 0x%02x, err %v", i, typ, err)
		}
	}
	if got := srv.Broker().NumSubscriptions(); got != subs {
		t.Fatalf("%d subscriptions, want %d", got, subs)
	}
	// The reader, and at most one writer that has not exited yet.
	if got := runtime.NumGoroutine(); got > one+2 {
		t.Errorf("%d goroutines with %d subscriptions on one connection, %d with none", got, subs, one)
	}
	srv.Close() // waits for the last writer, so the counters are final
	<-served
	if flushes, frames := srv.flushes.Value(), srv.frames.Value(); frames != subs || flushes > subs/8 {
		t.Errorf("%d replies left in %d writes; pipelined requests must share them", frames, flushes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Close, %d before the server", got, before)
	}
}

// rawSubscriber is a subscriber connection read by the test itself, so that
// nothing between the socket and the assertions can drop an event.
type rawSubscriber struct {
	nc   net.Conn
	seqs chan int64 // every delivery's seq, in arrival order
}

func dialRawSubscriber(t *testing.T, addr, filter string) *rawSubscriber {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.WriteFrame(nc, wire.MsgSubscribe, wire.AppendString(wire.AppendU32(nil, 1), filter)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.MsgSubscribed {
		t.Fatalf("subscribe reply: type 0x%02x, err %v", typ, err)
	}
	r := &rawSubscriber{nc: nc, seqs: make(chan int64, 1<<16)}
	go func() {
		defer close(r.seqs)
		var buf []byte
		for {
			typ, payload, bufOut, err := wire.ReadFrameInto(nc, buf)
			if buf = bufOut; err != nil {
				return
			}
			if typ != wire.MsgEvent {
				continue
			}
			_, rest, _ := wire.ReadU64(payload)
			ev, _, err := wire.ReadEventAlias(rest)
			if err != nil {
				return
			}
			seq, _ := ev.Get("seq")
			r.seqs <- seq.Int()
		}
	}()
	return r
}

func (r *rawSubscriber) next(t *testing.T) int64 {
	t.Helper()
	select {
	case seq, ok := <-r.seqs:
		if !ok {
			t.Fatal("subscriber connection ended")
		}
		return seq
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for a delivery")
		return 0
	}
}

// TestStalledSubscriberCostsOneWriterAndItsOwnEvents: a connection that
// stops reading holds one writer and a bounded buffer. Publish keeps
// returning, a second connection on the same filter receives every event in
// order, only the stalled connection's subscription drops, the broker says
// Busy while that lasts, and once the relay resumes the stalled connection
// receives exactly the events it was not refused, in order.
func TestStalledSubscriberCostsOneWriterAndItsOwnEvents(t *testing.T) {
	addr, srv := startServer(t, ServerOptions{RetryAfter: 20 * time.Millisecond})
	relay, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	stalled := dialRawSubscriber(t, relay.Addr(), `k = 1`)
	healthy := dialRawSubscriber(t, addr, `k = 1`)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Events large enough that the sockets between broker and relay fill
	// within a few hundred of them.
	pad := string(make([]byte, 48<<10))
	publish := func(seq int64) {
		t.Helper()
		n, err := srv.Broker().Publish(event.New().Set("k", 1).Set("seq", seq).Set("pad", pad))
		if err != nil || n != 2 {
			t.Fatalf("Publish %d = %d, %v", seq, n, err)
		}
		if got := healthy.next(t); got != seq { // one at a time: the healthy side is never the slow one
			t.Fatalf("healthy connection received %d, want %d", got, seq)
		}
	}
	relay.Stall()
	var seq int64
	dropped := func() int64 { return int64(srv.Broker().Stats().Dropped) }
	for ; dropped() == 0; seq++ {
		if seq == 20000 {
			t.Fatal("the stalled connection never refused a delivery")
		}
		publish(seq)
	}
	if !srv.Broker().Congested() {
		t.Error("broker not congested with one of two subscriptions refusing")
	}
	if _, err := pub.Publish(event.New().Set("k", 0)); !errors.Is(err, ErrBusy) {
		t.Errorf("TCP publish while congested: err = %v, want ErrBusy", err)
	}
	for end := seq + 10; seq < end; seq++ { // and Publish still returns
		publish(seq)
	}
	// Every drop is the stalled subscription's: the healthy one has
	// received every event.
	refused := dropped()
	if got := int64(srv.refused.Value()); got != refused {
		t.Errorf("netbroker_delivery_refused_total = %d, broker dropped %d", got, refused)
	}

	relay.Resume()
	last := int64(-1)
	for got := int64(0); got < seq-refused; got++ {
		s := stalled.next(t)
		if s <= last {
			t.Fatalf("stalled connection received %d after %d", s, last)
		}
		last = s
	}
	// Frames reach the reader before the writer has accounted for them.
	settled := func(cond func() bool, msg string) {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatal(msg)
			}
		}
	}
	settled(func() bool { return !srv.Broker().Congested() }, "congestion outlived the stall")
	publish(seq) // accepted by both again
	if got := stalled.next(t); got != seq {
		t.Errorf("stalled connection received %d after recovering, want %d", got, seq)
	}
	if _, err := pub.Publish(event.New().Set("k", 0)); err != nil {
		t.Errorf("TCP publish after recovery: %v", err)
	}
	settled(func() bool { return srv.Broker().Stats().Delivered >= uint64(2*(seq+1)-refused) }, "deliveries unaccounted")
	if st := srv.Broker().Stats(); st.Dropped != uint64(refused) || st.Delivered != uint64(2*(seq+1)-refused) {
		t.Errorf("Stats %+v, want %d dropped and %d delivered", st, refused, 2*(seq+1)-refused)
	}
}
