package netbroker

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/wire"
)

// push is one MsgEvent frame: the handle it names and the event it carries.
type push struct {
	handle uint64
	ev     event.Event
}

// rawClient speaks the wire protocol one request at a time and keeps every
// frame it reads, so a test sees exactly which handles the server names.
type rawClient struct {
	t   *testing.T
	nc  net.Conn
	r   *bufio.Reader
	req uint32
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{t: t, nc: nc, r: bufio.NewReader(nc)}
}

// call sends one request and reads frames until its reply, returning the
// reply and the event pushes that came before it.
func (c *rawClient) call(typ byte, body []byte) (byte, []byte, []push) {
	c.t.Helper()
	c.req++
	if err := wire.WriteFrame(c.nc, typ, append(wire.AppendU32(nil, c.req), body...)); err != nil {
		c.t.Fatal(err)
	}
	var pushes []push
	for {
		rtyp, payload, err := wire.ReadFrame(c.r)
		if err != nil {
			c.t.Fatal(err)
		}
		if rtyp == wire.MsgEvent {
			pushes = append(pushes, decodePush(c.t, payload))
			continue
		}
		id, rest, err := wire.ReadU32(payload)
		if err != nil || id != c.req {
			c.t.Fatalf("reply to request %d carries id %d (err %v)", c.req, id, err)
		}
		return rtyp, rest, pushes
	}
}

func decodePush(t *testing.T, payload []byte) push {
	t.Helper()
	h, rest, err := wire.ReadU64(payload)
	if err != nil {
		t.Fatal(err)
	}
	ev, _, err := wire.ReadEvent(rest)
	if err != nil {
		t.Fatal(err)
	}
	return push{h, ev}
}

func (c *rawClient) subscribe(text string) uint64 {
	c.t.Helper()
	typ, rest, _ := c.call(wire.MsgSubscribe, wire.AppendString(nil, text))
	h, _, err := wire.ReadU64(rest)
	if typ != wire.MsgSubscribed || err != nil {
		c.t.Fatalf("subscribe %q: reply 0x%02x, err %v", text, typ, err)
	}
	return h
}

// unsubscribe returns the error text of a refused Unsubscribe, "" on OK.
func (c *rawClient) unsubscribe(h uint64) string {
	c.t.Helper()
	typ, rest, _ := c.call(wire.MsgUnsubscribe, wire.AppendU64(nil, h))
	switch typ {
	case wire.MsgOK:
		return ""
	case wire.MsgError:
		msg, _, _ := wire.ReadString(rest)
		return msg
	}
	c.t.Fatalf("unsubscribe %d: reply 0x%02x", h, typ)
	return ""
}

func (c *rawClient) publish(ev event.Event) (int, []push) {
	c.t.Helper()
	typ, rest, pushes := c.call(wire.MsgPublish, wire.AppendEvent(nil, ev))
	n, _, err := wire.ReadU32(rest)
	if typ != wire.MsgPublished || err != nil {
		c.t.Fatalf("publish: reply 0x%02x, err %v", typ, err)
	}
	return int(n), pushes
}

// TestHandleReuse: a fresh connection's handles run 1, 2, …; a vacated
// slot is reused under a new handle, the old handle is unknown from then
// on, and frames queued before the Unsubscribe still carry the old handle
// ahead of its OK reply.
func TestHandleReuse(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		addr, _ := startServer(t, ServerOptions{})
		c := dialRaw(t, addr)
		for want := uint64(1); want <= 3; want++ {
			if h := c.subscribe(`k = 1`); h != want {
				t.Fatalf("handle %d, want %d: a fresh connection's handles run 1, 2, …", h, want)
			}
		}
		if msg := c.unsubscribe(2); msg != "" {
			t.Fatal(msg)
		}
		h := c.subscribe(`k = 2`)
		if h == 2 || uint32(h) != 2 || h>>32 != 1 {
			t.Fatalf("reused slot 2 under handle %#x, want slot 2 with generation 1", h)
		}
		if msg := c.unsubscribe(2); !strings.Contains(msg, "unknown subscription") {
			t.Fatalf("stale handle 2: %q, want unknown subscription", msg)
		}
		if msg := c.unsubscribe(h + 1<<32); !strings.Contains(msg, "unknown subscription") {
			t.Fatalf("future handle: %q, want unknown subscription", msg)
		}
		n, pushes := c.publish(event.New().Set("k", 2))
		if n != 1 || len(pushes) != 1 || pushes[0].handle != h {
			t.Fatalf("publish k=2: %d matched, pushes %v; want one, to handle %#x", n, pushes, h)
		}
		if h4 := c.subscribe(`k = 1`); h4 != 4 {
			t.Fatalf("handle %d after the reuse, want 4", h4)
		}
	})

	t.Run("queued frames keep the old handle", func(t *testing.T) {
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		hc := newHeldConn(t)
		c := newConn(srv, hc)
		req := uint32(0)
		do := func(typ byte, body []byte) {
			req++
			if err := c.handle(typ, append(wire.AppendU32(nil, req), body...)); err != nil {
				t.Fatal(err)
			}
		}
		publish := func(n int) {
			if _, err := srv.br.Publish(event.New().Set("k", 1).Set("n", n)); err != nil {
				t.Fatal(err)
			}
		}
		do(wire.MsgSubscribe, wire.AppendString(nil, `k = 1`)) // handle 1
		do(wire.MsgSubscribe, wire.AppendString(nil, `k = 1`)) // handle 2
		publish(0)                                             // kicks the writer
		<-hc.entered                                           // held inside its Write
		publish(1)                                             // queued behind it
		do(wire.MsgUnsubscribe, wire.AppendU64(nil, 1))
		do(wire.MsgSubscribe, wire.AppendString(nil, `k = 1`)) // reuses slot 1
		publish(2)
		close(hc.gate)
		c.flush()
		c.cleanup()

		var all []byte
		for _, w := range hc.writes {
			all = append(all, w...)
		}
		reused := uint64(1)<<32 | 1
		want := []string{
			"subscribed 1", "subscribed 2", "event n=0 1", "event n=0 2",
			"event n=1 1", "event n=1 2", "ok", fmt.Sprintf("subscribed %d", reused),
			"event n=2 2", fmt.Sprintf("event n=2 %d", reused),
		}
		var got []string
		r := bytes.NewReader(all)
		for r.Len() > 0 {
			typ, payload, err := wire.ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			switch typ {
			case wire.MsgEvent:
				p := decodePush(t, payload)
				n, _ := p.ev.Get("n")
				got = append(got, fmt.Sprintf("event n=%v %d", n, p.handle))
			case wire.MsgSubscribed:
				h, _, _ := wire.ReadU64(payload[4:])
				got = append(got, fmt.Sprintf("subscribed %d", h))
			case wire.MsgOK:
				got = append(got, "ok")
			default:
				got = append(got, fmt.Sprintf("type 0x%02x", typ))
			}
		}
		// One publish's deliveries may leave in any order: sort each run of
		// event frames, which keeps publishes in order (n leads the text).
		for i := 0; i < len(got); {
			j := i
			for j < len(got) && strings.HasPrefix(got[j], "event") {
				j++
			}
			sort.Strings(got[i:j])
			i = j + 1
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("frames\n got %q\nwant %q", got, want)
		}
	})
}

// TestHandleReuseOracle drives one connection through seeded random
// subscribe, unsubscribe (live and stale handles) and publish steps and
// checks every reply and push against a naive model: each handle is new,
// a publish reaches each live matching handle exactly once and no other,
// and a handle once unsubscribed stays unknown.
func TestHandleReuseOracle(t *testing.T) {
	filters := []string{`k = 0`, `k = 1`, `k >= 1`, `k < 2 or j = 1`, `not k = 3 and j = 0`}
	exprs := make([]boolexpr.Expr, len(filters))
	for i, f := range filters {
		exprs[i] = mustParse(t, f)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr, _ := startServer(t, ServerOptions{}) // a publish counts every connection's matches
		c := dialRaw(t, addr)
		live := map[uint64]int{} // handle → filter
		var dead []uint64
		issued := map[uint64]bool{}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				f := rng.Intn(len(filters))
				h := c.subscribe(filters[f])
				if issued[h] {
					t.Fatalf("seed %d step %d: handle %#x issued twice", seed, step, h)
				}
				issued[h], live[h] = true, f
			case op < 7 && len(live) > 0:
				hs := sortedHandles(live)
				h := hs[rng.Intn(len(hs))]
				if msg := c.unsubscribe(h); msg != "" {
					t.Fatalf("seed %d step %d: unsubscribe live %#x: %s", seed, step, h, msg)
				}
				delete(live, h)
				dead = append(dead, h)
			case op < 8 && len(dead) > 0:
				h := dead[rng.Intn(len(dead))]
				if msg := c.unsubscribe(h); !strings.Contains(msg, "unknown subscription") {
					t.Fatalf("seed %d step %d: stale %#x: %q", seed, step, h, msg)
				}
			default:
				ev := event.New().Set("k", rng.Intn(4)).Set("j", rng.Intn(2))
				n, pushes := c.publish(ev)
				var want, got []uint64
				for _, h := range sortedHandles(live) {
					if exprs[live[h]].Eval(ev) {
						want = append(want, h)
					}
				}
				for _, p := range pushes {
					if !p.ev.Equal(ev) {
						t.Fatalf("seed %d step %d: pushed %s for %s", seed, step, p.ev, ev)
					}
					got = append(got, p.handle)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: %s matched %d, pushed to %x; oracle %x", seed, step, ev, n, got, want)
				}
			}
		}
	}
}

func sortedHandles(m map[uint64]int) []uint64 {
	hs := make([]uint64, 0, len(m))
	for h := range m {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}
