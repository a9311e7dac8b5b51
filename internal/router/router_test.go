package router

import (
	"errors"
	"sync"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
)

// recorder appends every send, tagged with the link it went over.
type recorder struct {
	sent []sentMsg
}

type sentMsg struct {
	link int
	m    Msg
}

func (r *recorder) send(link int, m Msg) { r.sent = append(r.sent, sentMsg{link: link, m: m}) }

func (r *recorder) ofKind(k Kind) []sentMsg {
	var out []sentMsg
	for _, s := range r.sent {
		if s.m.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// sendTo is link i's Sender, handing each send to a link-indexed func.
type sendTo struct {
	i    int
	send func(link int, m Msg)
}

func (s sendTo) Send(m Msg) { s.send(s.i, m) }

// addLinks adds n links to r, each sending through send with its index.
func addLinks(r *Router, n int, send func(link int, m Msg)) {
	for range n {
		r.AddLink(sendTo{r.NumLinks(), send})
	}
}

func newBroker() *broker.Broker { return broker.New(broker.Options{}) }

func band(c, hi int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(c)),
		boolexpr.Pred("price", predicate.Lt, int64(hi)),
	)
}

func bandEvent(c, price int) event.Event {
	return event.New().Set("cat", int64(c)).Set("price", int64(price))
}

func newRouter(t *testing.T, links int, coverOn bool) (*Router, *recorder) {
	t.Helper()
	tr := &recorder{}
	r := New(Config{Cover: coverOn, Broker: newBroker()})
	addLinks(r, links, tr.send)
	return r, tr
}

func TestSubscribeFloodsAllOtherLinks(t *testing.T) {
	r, tr := newRouter(t, 3, false)
	if err := r.subscribe(1, band(1, 100), func(event.Event) {}, 2); err != nil {
		t.Fatal(err)
	}
	subs := tr.ofKind(Sub)
	if len(subs) != 2 {
		t.Fatalf("flooded %d links, want 2 (all except origin)", len(subs))
	}
	for _, s := range subs {
		if s.link == 2 {
			t.Errorf("flooded back to origin link")
		}
	}
	if got := r.Counts().SubMsgs; got != 2 {
		t.Errorf("SubMsgs = %d, want 2", got)
	}
}

func TestDuplicateSubscribeReportsNotInstalled(t *testing.T) {
	r, _ := newRouter(t, 2, false)
	if err := r.subscribe(7, band(0, 10), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe(7, band(0, 20), nil, 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate subscription ID: err = %v, want ErrDuplicate", err)
	}
	if r.NumRoutes() != 1 {
		t.Errorf("NumRoutes = %d, want 1", r.NumRoutes())
	}
}

func TestInstallErrorIsReturnedNotPanicked(t *testing.T) {
	r, tr := newRouter(t, 2, false)
	// > 255 children in one And is uncompilable in the paper encoding.
	xs := make([]boolexpr.Expr, 256)
	for i := range xs {
		xs[i] = boolexpr.Pred("a", predicate.Eq, int64(i))
	}
	if err := r.subscribe(1, boolexpr.And{Xs: xs}, nil, -1); err == nil {
		t.Fatal("uncompilable subscription accepted")
	}
	if r.NumRoutes() != 0 {
		t.Errorf("failed install left a route behind")
	}
	if len(tr.sent) != 0 {
		t.Errorf("failed install was flooded: %d messages", len(tr.sent))
	}
}

func TestEventRoutesToNextHopsOnly(t *testing.T) {
	cases := []struct {
		name            string
		links, to, from int // the event arrives over link from
	}{
		{"3 links", 3, 1, 2},
		{"70 links", 70, 68, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, tr := newRouter(t, c.links, false)
			// Two subscriptions toward link to, one local, and one toward
			// link from, where the event must not go back.
			if err := r.subscribe(1, band(1, 100), nil, c.to); err != nil {
				t.Fatal(err)
			}
			if err := r.subscribe(2, band(1, 50), nil, c.to); err != nil {
				t.Fatal(err)
			}
			var local int
			if err := r.subscribe(3, band(1, 30), func(event.Event) { local++ }, -1); err != nil {
				t.Fatal(err)
			}
			if err := r.subscribe(4, band(1, 20), nil, c.from); err != nil {
				t.Fatal(err)
			}
			tr.sent = nil
			trace := Trace{ID: 0xbeef, OriginNanos: 42}
			r.routeEvent(Msg{Kind: Event, Ev: bandEvent(1, 10), Trace: trace}, c.from)
			evs := tr.ofKind(Event)
			if len(evs) != 1 || evs[0].link != c.to {
				t.Fatalf("event forwards = %+v, want exactly one over link %d", evs, c.to)
			}
			if evs[0].m.Hops != 1 || evs[0].m.Trace != trace {
				t.Errorf("forwarded copy = hops %d trace %+v, want hops 1 trace %+v", evs[0].m.Hops, evs[0].m.Trace, trace)
			}
			if local != 1 {
				t.Errorf("local deliveries = %d, want 1", local)
			}
			if n := r.Counts(); n.Forwarded != 1 || n.Delivered != 1 {
				t.Errorf("Counts = %+v", n)
			}
		})
	}
}

func TestMaxHopsDropIsCounted(t *testing.T) {
	r, tr := newRouter(t, 2, false)
	if err := r.subscribe(1, band(1, 100), nil, 0); err != nil {
		t.Fatal(err)
	}
	r.routeEvent(Msg{Kind: Event, Ev: bandEvent(1, 10), Hops: MaxHops}, 1)
	if got := r.Counts().HopDropped; got != 1 {
		t.Errorf("HopDropped = %d, want 1", got)
	}
	if len(tr.ofKind(Event)) != 0 {
		t.Error("event forwarded past MaxHops")
	}
}

func TestCoverSuppressionAndReflood(t *testing.T) {
	r, tr := newRouter(t, 1, true)
	if err := r.subscribe(1, band(1, 100), nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe(2, band(1, 10), nil, -1); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ofKind(Sub)); got != 1 {
		t.Fatalf("flooded %d subscriptions, want 1 (narrow covered)", got)
	}
	if got := r.Counts().CoverSuppressed; got != 1 {
		t.Fatalf("CoverSuppressed = %d, want 1", got)
	}
	// Retracting the coverer must re-flood the narrow filter BEFORE the
	// retraction message.
	tr.sent = nil
	r.Handle(Msg{Kind: Unsub, SubID: 1}, nil, -1)
	if len(tr.sent) != 2 {
		t.Fatalf("unsubscribe emitted %d messages, want 2 (re-flood + retract)", len(tr.sent))
	}
	if tr.sent[0].m.Kind != Sub || tr.sent[0].m.SubID != 2 {
		t.Errorf("first message = %+v, want re-flood of sub 2", tr.sent[0].m)
	}
	if tr.sent[1].m.Kind != Unsub || tr.sent[1].m.SubID != 1 {
		t.Errorf("second message = %+v, want retraction of sub 1", tr.sent[1].m)
	}
	if filters, frontier := r.CoverState(0); filters != 1 || frontier != 1 {
		t.Errorf("cover state after reflood = %d filters/%d frontier, want 1/1", filters, frontier)
	}
}

func TestSyncLinkFloodsExistingRoutes(t *testing.T) {
	r, tr := newRouter(t, 1, true)
	if err := r.subscribe(1, band(1, 100), nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe(2, band(2, 50), nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe(3, band(1, 10), nil, -1); err != nil {
		t.Fatal(err)
	}
	tr.sent = nil
	link := r.AddLink(sendTo{r.NumLinks(), tr.send}) // floods the known routes over the new link
	subs := tr.ofKind(Sub)
	// Covering applies on the fresh link too: sub 3 is shadowed by sub 1.
	if len(subs) != 2 {
		t.Fatalf("sync flooded %d subscriptions, want 2 (one covered)", len(subs))
	}
	for _, s := range subs {
		if s.link != link {
			t.Errorf("sync sent over link %d, want %d", s.link, link)
		}
	}
}

func TestRemoveLinkRetractsLearnedRoutes(t *testing.T) {
	r, tr := newRouter(t, 3, false)
	// Learned over link 0, flooded to links 1 and 2.
	if err := r.subscribe(1, band(1, 100), nil, 0); err != nil {
		t.Fatal(err)
	}
	// Local subscription survives.
	if err := r.subscribe(2, band(2, 50), func(event.Event) {}, -1); err != nil {
		t.Fatal(err)
	}
	tr.sent = nil
	r.RemoveLink(0)
	if r.HasRoute(1) {
		t.Error("route learned over the dead link survived")
	}
	if !r.HasRoute(2) {
		t.Error("local route was retracted with the link")
	}
	unsubs := tr.ofKind(Unsub)
	if len(unsubs) != 2 {
		t.Fatalf("retraction crossed %d links, want 2", len(unsubs))
	}
	for _, u := range unsubs {
		if u.link == 0 {
			t.Error("retraction sent over the dead link itself")
		}
	}
	// Later floods skip the dead link.
	tr.sent = nil
	if err := r.subscribe(3, band(0, 10), nil, -1); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.ofKind(Sub) {
		if s.link == 0 {
			t.Error("flood used a dead link")
		}
	}
}

func TestQueueFIFOAndClose(t *testing.T) {
	q := flowQueue(0, 0) // Push only: never shed
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if n := q.Stats().Items; n != 100 {
		t.Fatalf("Items = %d", n)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v", i, v, ok)
		}
	}
	// A blocked Pop wakes on Push…
	done := make(chan int, 1)
	go func() {
		v, _ := q.Pop()
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(42)
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("woken Pop = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not wake on Push")
	}
	// …and on Close.
	closed := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		closed <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-closed:
		if ok {
			t.Fatal("Pop returned ok after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not wake on Close")
	}
	q.Push(1) // dropped, not panicking
	if _, ok := q.Pop(); ok {
		t.Error("Pop delivered after Close")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := flowQueue(0, 0) // Push only: never shed
	const producers, per = 8, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(p*per + i)
			}
		}(p)
	}
	got := make(chan map[int]bool, 1)
	go func() {
		seen := make(map[int]bool, producers*per)
		for len(seen) < producers*per {
			v, ok := q.Pop()
			if !ok {
				break
			}
			if seen[v] {
				break
			}
			seen[v] = true
		}
		got <- seen
	}()
	wg.Wait()
	select {
	case seen := <-got:
		if len(seen) != producers*per {
			t.Fatalf("consumed %d distinct items, want %d", len(seen), producers*per)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer stuck")
	}
	q.Close()
}

// TestCoverCacheDifferential pins that covering decisions are
// deterministic: the same churny script, run twice through fresh routers,
// emits identical sends in identical order and identical counts. Link
// posets probe candidates in insertion order, so no map iteration order
// can leak into which filter is sent or suppressed.
func TestCoverCacheDifferential(t *testing.T) {
	run := func() (*Router, *recorder) {
		r, tr := newRouter(t, 3, true)
		id := uint64(0)
		for round := 0; round < 3; round++ {
			for c := 0; c < 4; c++ {
				for _, hi := range []int{10, 100, 1000} {
					id++
					if err := r.subscribe(id, band(c, hi), nil, -1); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Retract the wide filters so their coverees re-flood.
			for retract := id - 11; retract <= id; retract += 3 {
				r.Handle(Msg{Kind: Unsub, SubID: retract}, nil, -1)
			}
		}
		return r, tr
	}
	r1, tr1 := run()
	r2, tr2 := run()
	if len(tr1.sent) != len(tr2.sent) {
		t.Fatalf("runs diverged: %d vs %d sends", len(tr1.sent), len(tr2.sent))
	}
	for i := range tr1.sent {
		a, b := tr1.sent[i], tr2.sent[i]
		if a.link != b.link || a.m.Kind != b.m.Kind || a.m.SubID != b.m.SubID {
			t.Fatalf("send %d diverged: %+v vs %+v", i, a, b)
		}
	}
	c1, c2 := r1.Counts(), r2.Counts()
	if c1 != c2 {
		t.Errorf("counts diverged: %+v vs %+v", c1, c2)
	}
	if c1.CoverSuppressed == 0 || len(tr1.ofKind(Unsub)) == 0 {
		t.Errorf("script neither suppressed nor retracted: %+v", c1)
	}
}

// TestCoverCacheSuppressionEquivalence pins the suppression decisions
// covering routers have always made: a covered subscription never crosses
// the link, and an identical filter on another ID is suppressed too.
func TestCoverCacheSuppressionEquivalence(t *testing.T) {
	r, tr := newRouter(t, 2, true)
	wide := band(1, 1000)
	narrow := band(1, 10)
	if err := r.subscribe(1, wide, nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe(2, narrow, nil, -1); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ofKind(Sub)); got != 2 { // one per link for wide only
		t.Fatalf("subs sent = %d, want 2 (narrow suppressed)", got)
	}
	// Same narrow filter again on another ID: it joins narrow's node.
	if err := r.subscribe(3, band(1, 10), nil, -1); err != nil {
		t.Fatal(err)
	}
	c := r.Counts()
	if c.CoverSuppressed != 4 { // subs 2 and 3 over both links
		t.Errorf("suppressed = %d, want 4", c.CoverSuppressed)
	}
}

// TestCoverReannouncesUnderLiveID pins that a link never keeps a retired
// ID: when the route whose ID names a sent node leaves while an identical
// route keeps the node alive, the node is re-announced under the survivor's
// ID before the old one is retracted — once per RemoveLink, not once per
// departing member. A later subscription reusing the old ID, as a restarted
// broker's does, then floods like any new one.
func TestCoverReannouncesUnderLiveID(t *testing.T) {
	r, tr := newRouter(t, 2, true)
	for id, from := range []int{0, 0, -1} { // IDs 1 and 2 over link 0, 3 local
		if err := r.subscribe(uint64(id+1), band(1, 100), nil, from); err != nil {
			t.Fatal(err)
		}
	}
	tr.sent = nil
	r.RemoveLink(0)
	want := []Msg{{Kind: Sub, SubID: 3}, {Kind: Unsub, SubID: 1}}
	if len(tr.sent) != len(want) {
		t.Fatalf("origin death sent %+v, want %+v over link 1", tr.sent, want)
	}
	for k, s := range tr.sent {
		if s.link != 1 || s.m.Kind != want[k].Kind || s.m.SubID != want[k].SubID {
			t.Errorf("send %d = link %d %+v, want link 1 %+v", k, s.link, s.m, want[k])
		}
	}
	tr.sent = nil
	if err := r.Handle(Msg{Kind: Sub, SubID: 1, Expr: band(2, 100)}, nil, -1); err != nil {
		t.Fatalf("reused ID: %v", err)
	}
	if subs := tr.ofKind(Sub); len(subs) != 1 || subs[0].m.SubID != 1 {
		t.Errorf("reused ID flooded %+v, want one Sub 1 over link 1", subs)
	}
}

// TestHandleEventMsgPreservesTrace pins that a traced event keeps its
// trace across a forward — the property the federation's hop records
// depend on.
func TestHandleEventMsgPreservesTrace(t *testing.T) {
	r, tr := newRouter(t, 2, false)
	if err := r.subscribe(7, band(1, 100), nil, 1); err != nil {
		t.Fatal(err)
	}
	trace := Trace{ID: 0xfeed, OriginNanos: 123456789}
	r.routeEvent(Msg{Kind: Event, Ev: bandEvent(1, 5), Hops: 2, Trace: trace}, 0)
	fwds := tr.ofKind(Event)
	if len(fwds) != 1 {
		t.Fatalf("forwards = %d, want 1", len(fwds))
	}
	if got := fwds[0].m; got.Trace != trace || got.Hops != 3 {
		t.Errorf("forwarded msg = %+v, want trace %+v hops 3", got, trace)
	}
	// An untraced message stays untraced.
	r.routeEvent(Msg{Kind: Event, Ev: bandEvent(1, 5)}, -1)
	fwds = tr.ofKind(Event)
	if len(fwds) != 2 || fwds[1].m.Trace != (Trace{}) {
		t.Fatalf("untraced event was forwarded with a trace: %+v", fwds[len(fwds)-1].m)
	}
}

// TestRouterSharedRegistryTotals pins the shared-registry contract: two
// routers on one registry share counters, so either's Counts reports the
// pair's totals.
func TestRouterSharedRegistryTotals(t *testing.T) {
	reg := obs.NewRegistry()
	tr := &recorder{}
	ra := New(Config{Broker: newBroker(), Metrics: reg})
	rb := New(Config{Broker: newBroker(), Metrics: reg})
	addLinks(ra, 1, tr.send)
	addLinks(rb, 1, tr.send)
	if err := ra.subscribe(1, band(1, 100), nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := rb.subscribe(2, band(1, 100), nil, -1); err != nil {
		t.Fatal(err)
	}
	if got := ra.Counts().SubMsgs; got != 2 {
		t.Errorf("shared SubMsgs = %d, want 2", got)
	}
	if s, ok := reg.Get("router_sub_msgs_total"); !ok || s.Value != 2 {
		t.Errorf("registry counter = %+v %v", s, ok)
	}
}

// TestSubscribeOnRemovedLinkIsDropped pins that a subscription arriving on
// a link already removed — a frame its reader held when the link died — is
// neither installed nor flooded nor reported: its next hop is gone.
func TestSubscribeOnRemovedLinkIsDropped(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		r, tr := newRouter(t, 3, coverOn)
		r.RemoveLink(0)
		if err := r.Handle(Msg{Kind: Sub, SubID: 10, Expr: band(1, 50)}, nil, 0); err != nil {
			t.Errorf("cover=%v: Handle reported %v for a removed link's frame", coverOn, err)
		}
		if err := r.Handle(Msg{Kind: Sub, SubID: 11, Expr: band(1, 50)}, nil, 7); err != nil {
			t.Errorf("cover=%v: Handle reported %v for a never-added link", coverOn, err)
		}
		if r.NumRoutes() != 0 || len(tr.sent) != 0 {
			t.Errorf("cover=%v: %d routes installed, %d messages flooded; want none", coverOn, r.NumRoutes(), len(tr.sent))
		}
	}
}

// TestHandleDispatch pins Router.Handle: each kind reaches its handler, a
// duplicate flood is an ErrDuplicate anomaly from any link including the
// broker's own API, a broker install failure is returned as is, and a
// retraction is honoured only from its route's next hop.
func TestHandleDispatch(t *testing.T) {
	r, tr := newRouter(t, 2, false)
	var local int
	if err := r.Handle(Msg{Kind: Sub, SubID: 1, Expr: band(1, 100)}, func(event.Event) { local++ }, -1); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(Msg{Kind: Sub, SubID: 2, Expr: band(1, 100)}, nil, 1); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{-1, 0} {
		err := r.Handle(Msg{Kind: Sub, SubID: 1, Expr: band(2, 5)}, nil, from)
		if !errors.Is(err, ErrDuplicate) {
			t.Errorf("duplicate flood from %d: err = %v, want ErrDuplicate", from, err)
		}
	}
	xs := make([]boolexpr.Expr, 256) // uncompilable, as in TestInstallErrorIsReturnedNotPanicked
	for i := range xs {
		xs[i] = boolexpr.Pred("a", predicate.Eq, int64(i))
	}
	if err := r.Handle(Msg{Kind: Sub, SubID: 3, Expr: boolexpr.And{Xs: xs}}, nil, -1); err == nil || errors.Is(err, ErrDuplicate) {
		t.Errorf("install failure: err = %v, want the broker's error", err)
	}
	tr.sent = nil
	if err := r.Handle(Msg{Kind: Event, Ev: bandEvent(1, 5)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if local != 1 || len(tr.ofKind(Event)) != 1 {
		t.Errorf("event: %d local deliveries, %d forwards; want 1 and 1", local, len(tr.ofKind(Event)))
	}
	// A retraction from anywhere but the route's next hop names another
	// node's subscription under the same ID: it is reported, not obeyed.
	for _, m := range []struct {
		id   uint64
		from int
	}{{2, 0}, {2, -1}, {1, 0}} {
		if err := r.Handle(Msg{Kind: Unsub, SubID: m.id}, nil, m.from); err == nil || !r.HasRoute(m.id) {
			t.Errorf("Unsub %d from %d: err = %v, route kept %v; want an error and the route kept", m.id, m.from, err, r.HasRoute(m.id))
		}
	}
	if len(tr.ofKind(Unsub)) != 0 {
		t.Errorf("misdirected retractions were flooded: %+v", tr.ofKind(Unsub))
	}
	if err := r.Handle(Msg{Kind: Unsub, SubID: 2}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if r.HasRoute(2) || len(tr.ofKind(Unsub)) != 1 {
		t.Errorf("unsubscribe: route kept %v, %d retractions; want gone and 1", r.HasRoute(2), len(tr.ofKind(Unsub)))
	}
}
