package netbroker

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/wire"
)

// TestPublishBatchPartialCounts pins the per-event reply accounting: a
// batch whose events match one, zero and two subscriptions respectively
// must come back as [1 0 2], and every matched event must reach its
// subscribers.
func TestPublishBatchPartialCounts(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	subA, err := cli.Subscribe(`a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := cli.Subscribe(`b = 2`)
	if err != nil {
		t.Fatal(err)
	}

	evs := []event.Event{
		event.New().Set("a", 1),             // matches subA only
		event.New().Set("a", 9).Set("b", 9), // matches nothing
		event.New().Set("a", 1).Set("b", 2), // matches both
	}
	counts, err := cli.PublishBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0, 2}; len(counts) != len(want) ||
		counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Fatalf("counts = %v, want %v", counts, want)
	}

	// subA receives events 0 and 2; subB receives event 2.
	for i, want := range []event.Event{evs[0], evs[2]} {
		if got := recvEvent(t, subA.C()); !got.Equal(want) {
			t.Fatalf("subA event %d: got %s, want %s", i, got, want)
		}
	}
	if got := recvEvent(t, subB.C()); !got.Equal(evs[2]) {
		t.Fatalf("subB: got %s, want %s", got, evs[2])
	}
}

// TestPublishBatchEmptyAndChunked covers the degenerate and oversized
// client-side cases: an empty batch is a no-op, and a batch larger than
// one frame's event limit is split transparently with counts for every
// event.
func TestPublishBatchEmptyAndChunked(t *testing.T) {
	// The queue holds the whole batch so the subscriber loses nothing.
	addr, _ := startServer(t, ServerOptions{Broker: broker.Options{QueueSize: 2 * wire.MaxBatchEvents}})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if counts, err := cli.PublishBatch(nil); err != nil || len(counts) != 0 {
		t.Fatalf("empty batch: %v, %v", counts, err)
	}

	if _, err := cli.Subscribe(`a >= 0`); err != nil {
		t.Fatal(err)
	}
	n := wire.MaxBatchEvents + 3
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.New().Set("a", i)
	}
	counts, err := cli.PublishBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != n {
		t.Fatalf("got %d counts, want %d", len(counts), n)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("count[%d] = %d, want 1", i, c)
		}
	}
}

// TestOversizedBatchRejectedWithoutDisconnect sends a raw MsgPublishBatch
// frame whose event count exceeds wire.MaxBatchEvents. The server must
// answer with MsgError and keep serving the connection — a bad request is
// not a protocol violation.
func TestOversizedBatchRejectedWithoutDisconnect(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	payload := wire.AppendU32(nil, 1) // reqID
	payload = wire.AppendU32(payload, wire.MaxBatchEvents+1)
	if err := wire.WriteFrame(nc, wire.MsgPublishBatch, payload); err != nil {
		t.Fatal(err)
	}
	typ, resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("response type = 0x%02x, want MsgError", typ)
	}
	_, rest, err := wire.ReadU32(resp)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := wire.ReadString(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "batch") {
		t.Errorf("error message %q does not mention the batch", msg)
	}

	// The connection must still serve requests: ping it.
	if err := wire.WriteFrame(nc, wire.MsgPing, wire.AppendU32(nil, 2)); err != nil {
		t.Fatal(err)
	}
	typ, resp, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatalf("connection dead after oversized batch: %v", err)
	}
	if typ != wire.MsgPong {
		t.Fatalf("post-reject response type = 0x%02x, want MsgPong", typ)
	}
	if id, _, _ := wire.ReadU32(resp); id != 2 {
		t.Fatalf("pong reqID = %d, want 2", id)
	}
}

// TestMalformedBatchRejectedWithoutDisconnect: a batch whose count
// overruns its payload is malformed, but the frame was well-delimited —
// error reply, connection stays up.
func TestMalformedBatchRejectedWithoutDisconnect(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	payload := wire.AppendU32(nil, 1)       // reqID
	payload = wire.AppendU32(payload, 1000) // promises 1000 events
	payload = append(payload, 0x00)         // delivers one stray byte
	if err := wire.WriteFrame(nc, wire.MsgPublishBatch, payload); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("response type = 0x%02x, want MsgError", typ)
	}
	if err := wire.WriteFrame(nc, wire.MsgPing, wire.AppendU32(nil, 2)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = wire.ReadFrame(nc); err != nil || typ != wire.MsgPong {
		t.Fatalf("connection unusable after malformed batch: type 0x%02x, %v", typ, err)
	}
}

// TestBatchInterleavedWithConcurrentSubscribers races batch publishers
// against clients that subscribe, receive and unsubscribe, over real TCP
// connections. Every batch must come back fully counted, and subscribers
// that stay put must keep receiving.
func TestBatchInterleavedWithConcurrentSubscribers(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{Broker: broker.Options{QueueSize: 256}})

	stable, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	stableSub, err := stable.Subscribe(`stable = true`)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Errorf("churn dial: %v", err)
				return
			}
			defer cli.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := cli.Subscribe(fmt.Sprintf(`w%d = %d`, w, i%5))
				if err != nil {
					t.Errorf("churn subscribe: %v", err)
					return
				}
				if err := sub.Unsubscribe(); err != nil {
					t.Errorf("churn unsubscribe: %v", err)
					return
				}
			}
		}(w)
	}

	var pubWG sync.WaitGroup
	const publishers, batches, batchSize = 3, 20, 16
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Errorf("publisher dial: %v", err)
				return
			}
			defer cli.Close()
			for i := 0; i < batches; i++ {
				evs := make([]event.Event, batchSize)
				for j := range evs {
					evs[j] = event.New().Set("stable", true).Set("p", p).Set("i", i*batchSize+j)
				}
				counts, err := cli.PublishBatch(evs)
				if err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
				if len(counts) != batchSize {
					t.Errorf("publisher %d: %d counts for %d events", p, len(counts), batchSize)
					return
				}
				for j, n := range counts {
					// The stable subscription matches every event; churn
					// subscriptions may add more.
					if n < 1 {
						t.Errorf("publisher %d batch %d event %d: count %d < 1", p, i, j, n)
						return
					}
				}
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	churnWG.Wait()

	// The stable subscriber sees every published event (publishers×batches×
	// batchSize), minus any dropped beyond its buffers; require at least one
	// full batch to prove pushes flowed during the interleaving.
	received := 0
	deadline := time.After(10 * time.Second)
	for received < publishers*batches*batchSize {
		select {
		case _, ok := <-stableSub.C():
			if !ok {
				t.Fatal("stable subscription channel closed")
			}
			received++
		case <-deadline:
			t.Fatalf("timed out with %d events received", received)
		case <-time.After(200 * time.Millisecond):
			// Quiescent: everything still in flight has been dropped on a
			// full buffer. Accept if we saw a meaningful stream.
			if received >= batchSize {
				return
			}
			t.Fatalf("stream stalled after only %d events", received)
		}
	}
}

// TestPublishBatchChunksBySize: a batch whose encoded form exceeds one
// frame must split by payload size, not just event count, and still come
// back fully counted.
func TestPublishBatchChunksBySize(t *testing.T) {
	addr, _ := startServer(t, ServerOptions{Broker: broker.Options{QueueSize: 2 * wire.MaxBatchEvents}})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(`big = true`); err != nil {
		t.Fatal(err)
	}

	// ~1000 events × ~2 KiB ≈ 2 MiB encoded: far beyond MaxFrameSize but
	// nowhere near MaxBatchEvents, so only size-based chunking can pass.
	blob := strings.Repeat("x", 2048)
	const n = 1000
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.New().Set("big", true).Set("i", i).Set("blob", blob)
	}
	counts, err := cli.PublishBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != n {
		t.Fatalf("got %d counts, want %d", len(counts), n)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("count[%d] = %d, want 1", i, c)
		}
	}
}
