package netbroker

import (
	"net"
	"testing"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/wire"
)

// fuzzFrame encodes one request frame of a FuzzServerRequest script: type,
// payload length (one byte), payload.
func fuzzFrame(typ byte, payload []byte) []byte {
	return append([]byte{typ, byte(len(payload))}, payload...)
}

// refuser is a sink that turns every delivery down.
type refuser struct{}

func (refuser) Deliver(uint64, event.Event) bool { return false }

// FuzzServerRequest feeds arbitrary request frames to one server connection
// over net.Pipe, one at a time. A frame whose payload carries a request ID
// must earn exactly one reply of a reply type naming that ID — pushes for
// the connection's own subscriptions may come first — and one without an
// ID ends the connection. Nothing may panic. The script's first byte says
// whether the broker starts congested, so publishes may be turned away
// with MsgBusy; then come frames as (type, length byte, payload).
func FuzzServerRequest(f *testing.F) {
	id := func(reqID uint32) []byte { return wire.AppendU32(nil, reqID) }
	ev := event.New().Set("k", 1).Set("sym", "ACME")
	sub := fuzzFrame(wire.MsgSubscribe, wire.AppendString(id(1), "k = 1"))
	pub := fuzzFrame(wire.MsgPublish, wire.AppendEvent(id(3), ev))
	for _, seed := range [][]byte{
		append(append([]byte{0}, sub...), pub...),
		append(append(append([]byte{0}, sub...),
			fuzzFrame(wire.MsgUnsubscribe, wire.AppendU64(id(2), 1))...),
			fuzzFrame(wire.MsgUnsubscribe, wire.AppendU64(id(4), 99))...),
		append([]byte{0}, fuzzFrame(wire.MsgSubscribe, wire.AppendString(id(5), "k = = 1"))...),
		append([]byte{0}, fuzzFrame(wire.MsgPublish, append(id(6), 0xff, 0xff))...),
		append([]byte{0}, fuzzFrame(wire.MsgPublishBatch, wire.AppendEventBatch(id(7), []event.Event{ev, ev}))...),
		append([]byte{0}, fuzzFrame(wire.MsgPing, id(8))...),
		append([]byte{0}, fuzzFrame(wire.MsgHello, wire.AppendHello(nil, wire.FederationVersion, 2))...),
		append([]byte{0}, fuzzFrame(0x7f, id(9))...),
		append([]byte{0}, fuzzFrame(wire.MsgPing, []byte{0, 1})...), // no request ID
		append([]byte{1}, pub...),
		append([]byte{1}, fuzzFrame(wire.MsgPublishBatch, wire.AppendEventBatch(id(10), []event.Event{ev}))...),
	} {
		f.Add(seed)
	}
	replies := map[byte]bool{
		wire.MsgSubscribed: true, wire.MsgOK: true, wire.MsgPublished: true,
		wire.MsgPublishedBatch: true, wire.MsgPong: true, wire.MsgError: true, wire.MsgBusy: true,
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1024 {
			return
		}
		srv := NewServer(ServerOptions{RetryAfter: 5 * time.Millisecond})
		defer srv.Close()
		if script[0]&1 == 1 {
			out := srv.Broker().Attach(refuser{})
			if _, err := out.Subscribe(mustParse(t, `never = 1`), 1); err != nil {
				t.Fatal(err)
			}
			out.Refuse()
		}
		cli, sc := net.Pipe()
		defer cli.Close()
		done := make(chan struct{})
		go func() { newConn(srv, sc).serve(); close(done) }()
		defer func() { cli.Close(); <-done }()
		cli.SetDeadline(time.Now().Add(10 * time.Second))

		// exchange sends one frame and reads up to its reply; false once the
		// server hung up, as it must on a frame without a request ID.
		var buf []byte
		exchange := func(typ byte, payload []byte) bool {
			if err := wire.WriteFrame(cli, typ, payload); err != nil {
				t.Fatalf("write request 0x%02x: %v", typ, err)
			}
			reqID, _, noID := wire.ReadU32(payload)
			for {
				rt, rp, b, err := wire.ReadFrameInto(cli, buf)
				buf = b
				switch {
				case err != nil && noID != nil:
					return false
				case err != nil:
					t.Fatalf("request 0x%02x (id %d): no reply: %v", typ, reqID, err)
				case rt == wire.MsgEvent:
					continue
				case noID != nil:
					t.Fatalf("request 0x%02x without an ID got reply 0x%02x", typ, rt)
				}
				if got, _, _ := wire.ReadU32(rp); !replies[rt] || got != reqID {
					t.Fatalf("request 0x%02x (id %d): reply 0x%02x for id %d", typ, reqID, rt, got)
				}
				return true
			}
		}
		for rest := script[1:]; len(rest) >= 2; {
			n := min(int(rest[1]), len(rest)-2)
			if !exchange(rest[0], rest[2:2+n]) {
				return
			}
			rest = rest[2+n:]
		}
		// A last ping's pong comes next: no request earned a second reply.
		exchange(wire.MsgPing, wire.AppendU32(nil, 1<<32-1))
	})
}
