//go:build !race

// Race instrumentation changes what the heap holds, so the byte pins run
// only in unraced builds.

package netbroker

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"

	"noncanon/internal/broker"
	"noncanon/internal/core"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/predicate"
	"noncanon/internal/wire"
)

// liveHeap is the heap still reachable: two collections, so that what the
// first one finalises or frees from pools is gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

type nopSink struct{}

func (nopSink) Deliver(uint64, event.Event) bool { return true }

// TestBytesPerSubscription pins what a subscription costs each serving
// layer, as live bytes per subscription over 20 000 filters of two shapes
// subscribed on one loopback connection: the engine alone, the broker over
// its engine, and the whole server. The serving layers — broker and
// netbroker together — hold one Subscription, one fan-out slot and one
// handle slot per subscription, so they cost the same on both shapes.
func TestBytesPerSubscription(t *testing.T) {
	const n = 20000
	shapes := []struct {
		name   string
		text   func(i int) string
		engine int64 // the engine's bytes per subscription may not grow past this
	}{
		{"grp", func(i int) string { return fmt.Sprintf("grp = %d", 1000+i%32) }, 140},
		{"selective", func(i int) string {
			a, v := 50000+int64(i*7919%2000)*70, 10000+int64(i*104729%2000)*10
			return fmt.Sprintf(`(bucket = %d and (price > %d or price <= %d)) and (vol >= %d or not region = "r%d")`,
				1000+i%2500, a, a-50000, v, i%4)
		}, 360},
	}
	// The serving layers' budget: a 32-byte Subscription, an 8-byte slot in
	// the broker's fan-out table and one in the connection's handle table,
	// each table with its append headroom.
	const servingBudget = 66
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			texts := make([]string, n)
			for i := range texts {
				texts[i] = sh.text(i)
			}
			perSub := func(build func()) int64 {
				m0 := liveHeap()
				build()
				return (liveHeap() - m0) / n
			}

			var eng *core.Engine
			engine := perSub(func() {
				eng = core.New(predicate.NewRegistry(), index.New(), core.Options{})
				for _, text := range texts {
					if _, err := eng.Subscribe(mustParse(t, text)); err != nil {
						t.Fatal(err)
					}
				}
			})
			runtime.KeepAlive(eng)
			eng = nil

			var br *broker.Broker
			withBroker := perSub(func() {
				br = broker.New(broker.Options{})
				out := br.Attach(nopSink{})
				for i, text := range texts {
					if _, err := out.Subscribe(mustParse(t, text), uint64(i+1)); err != nil {
						t.Fatal(err)
					}
				}
			})
			br.Close()
			br = nil

			var srv *Server
			var nc net.Conn
			full := perSub(func() {
				var addr string
				addr, srv = startServer(t, ServerOptions{})
				nc = subscribeAll(t, addr, texts)
			})
			runtime.KeepAlive(srv)
			runtime.KeepAlive(nc)
			runtime.KeepAlive(texts) // freed during a build, they would read as negative bytes

			brokerBytes, netBytes := withBroker-engine, full-withBroker
			t.Logf("bytes per subscription: engine %d, broker %d, netbroker %d (serving layers %d)",
				engine, brokerBytes, netBytes, full-engine)
			if engine > sh.engine {
				t.Errorf("engine holds %d B per subscription, pinned at ≤ %d", engine, sh.engine)
			}
			if full-engine > servingBudget {
				t.Errorf("broker + netbroker hold %d B per subscription (broker %d, netbroker %d), budget %d",
					full-engine, brokerBytes, netBytes, servingBudget)
			}
		})
	}
}

// subscribeAll subscribes texts over one new connection, pipelined in
// rounds of 128 requests, and returns the connection once every reply is
// in.
func subscribeAll(t *testing.T, addr string, texts []string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := bufio.NewReader(nc)
	var buf []byte
	for lo := 0; lo < len(texts); lo += 128 {
		hi := min(lo+128, len(texts))
		buf = buf[:0]
		for i := lo; i < hi; i++ {
			at := len(buf)
			buf = wire.AppendString(wire.AppendU32(wire.BeginFrame(buf, wire.MsgSubscribe), uint32(i)), texts[i])
			if buf, err = wire.EndFrame(buf, at); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			typ, _, err := wire.ReadFrame(r)
			if err != nil || typ != wire.MsgSubscribed {
				t.Fatalf("subscribe %d: reply 0x%02x, err %v", i, typ, err)
			}
		}
	}
	return nc
}
