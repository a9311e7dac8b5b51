package netoverlay

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
	"noncanon/internal/wire"
)

func band(c, hi int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(c)),
		boolexpr.Pred("price", predicate.Lt, int64(hi)),
	)
}

func bandEvent(c, price int) event.Event {
	return event.New().Set("cat", int64(c)).Set("price", int64(price))
}

// startBroker brings one broker up on a loopback listener.
func startBroker(t *testing.T, id uint32, coverOn bool) *Broker {
	t.Helper()
	b := NewBroker(Options{NodeID: id, Cover: coverOn, Logf: t.Logf})
	if _, err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// buildTree federates n brokers as a complete binary tree over loopback
// TCP: broker i connects to broker (i-1)/2.
func buildTree(t *testing.T, n int, coverOn bool) []*Broker {
	t.Helper()
	brokers := make([]*Broker, n)
	for i := range brokers {
		brokers[i] = startBroker(t, uint32(i+1), coverOn)
	}
	for i := 1; i < n; i++ {
		parent := brokers[(i-1)/2]
		if err := brokers[i].Connect(parent.Addr().String()); err != nil {
			t.Fatalf("connect %d -> %d: %v", i, (i-1)/2, err)
		}
	}
	return brokers
}

// newNet builds an in-process Network, closed when the test ends.
func newNet(t *testing.T, n int, edges [][2]int, opts Options) *Network {
	t.Helper()
	nw, err := NewNetwork(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

// home is the Network index of the node a subscription was made at: its
// ID carries the home node ID, which is the index plus one.
func home(ref SubRef) int { return int(ref.id>>32) - 1 }

// recorder accumulates (subscriber, event-seq) pairs.
type recorder struct {
	mu   sync.Mutex
	seen map[string][]int64
}

func newRecorder() *recorder { return &recorder{seen: map[string][]int64{}} }

func (r *recorder) handler(tag string) Handler {
	return func(ev event.Event) {
		v, _ := ev.Get("seq")
		r.mu.Lock()
		r.seen[tag] = append(r.seen[tag], v.Int())
		r.mu.Unlock()
	}
}

// snapshot returns each subscriber's deliveries in seq order.
func (r *recorder) snapshot() map[string][]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]int64, len(r.seen))
	for k, v := range r.seen {
		s := append([]int64(nil), v...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[k] = s
	}
	return out
}

// assertNoGoroutineLeak fails the test unless the goroutine count returns
// to its pre-test level (with slack for runtime helpers); runtime cleanup
// is asynchronous, so it polls.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	const slack = 2
	var n int
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		if n = runtime.NumGoroutine(); n <= before+slack {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutine leak: %d before, %d after close\n%s", before, n, buf[:runtime.Stack(buf, true)])
}

// TestFederatedExactlyOnce runs three brokers in a line and asserts every
// matching subscriber sees every event exactly once, from every publish
// origin — and that covering actually prunes the flood.
func TestFederatedExactlyOnce(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		name := "plain"
		if coverOn {
			name = "cover"
		}
		t.Run(name, func(t *testing.T) {
			nw := newNet(t, 3, LineEdges(3), Options{Cover: coverOn})
			brokers := nw.nodes

			type rec struct {
				mu   sync.Mutex
				seen map[int64]int
			}
			newRec := func() *rec { return &rec{seen: map[int64]int{}} }
			recs := map[string]*rec{}
			sub := func(b *Broker, tag string, f boolexpr.Expr) {
				r := newRec()
				recs[tag] = r
				if _, err := b.Subscribe(f, func(ev event.Event) {
					v, _ := ev.Get("seq")
					r.mu.Lock()
					r.seen[v.Int()]++
					r.mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Wide and narrow filters at the far end, another wide at the
			// middle: nested bands give covering something to prune.
			sub(brokers[0], "wide@0", band(1, 100))
			sub(brokers[0], "narrow@0", band(1, 10))
			sub(brokers[1], "wide@1", band(1, 100))
			sub(brokers[2], "narrow@2", band(1, 10))
			nw.Flush()

			seq := int64(0)
			for origin := 0; origin < 3; origin++ {
				for _, price := range []int{5, 50, 500} {
					seq++
					if err := brokers[origin].Publish(bandEvent(1, price).Set("seq", seq)); err != nil {
						t.Fatal(err)
					}
				}
			}
			nw.Flush()

			// price 5 (3 events) matches everything; price 50 (3) only the
			// wide filters; price 500 (3) nothing.
			want := map[string][]int64{
				"wide@0":   {1, 2, 4, 5, 7, 8},
				"narrow@0": {1, 4, 7},
				"wide@1":   {1, 2, 4, 5, 7, 8},
				"narrow@2": {1, 4, 7},
			}
			for tag, r := range recs {
				r.mu.Lock()
				var got []int64
				for s, n := range r.seen {
					if n != 1 {
						t.Errorf("%s: event %d delivered %d times, want exactly once", tag, s, n)
					}
					got = append(got, s)
				}
				r.mu.Unlock()
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if fmt.Sprint(got) != fmt.Sprint(want[tag]) {
					t.Errorf("%s: delivered %v, want %v", tag, got, want[tag])
				}
			}

			st := nw.Stats()
			if coverOn && st.CoverSuppressed == 0 {
				t.Error("CoverSuppressed = 0 with nested filters; covering is not engaged")
			}
			if !coverOn && st.CoverSuppressed != 0 {
				t.Errorf("CoverSuppressed = %d with covering off", st.CoverSuppressed)
			}
			if st.HopDropped != 0 || st.InstallErrors != 0 {
				t.Errorf("drops/anomalies: hops=%d installErrors=%d", st.HopDropped, st.InstallErrors)
			}
		})
	}
}

// oracleFilter draws a filter for TestFederationMatchesOracle: nested
// price bands (which covering prunes), ORs of two bands, and a band with a
// price hole, over three categories.
func oracleFilter(rng *rand.Rand) boolexpr.Expr {
	c, hi := rng.Intn(3), 10*(1+rng.Intn(10))
	switch rng.Intn(4) {
	case 0:
		return boolexpr.NewOr(band(c, hi), band(rng.Intn(3), 10*(1+rng.Intn(10))))
	case 1:
		return boolexpr.NewAnd(
			boolexpr.Pred("cat", predicate.Eq, int64(c)),
			boolexpr.NewOr(
				boolexpr.Pred("price", predicate.Lt, int64(hi)),
				boolexpr.Pred("price", predicate.Gt, int64(hi+20)),
			),
		)
	default:
		return band(c, hi)
	}
}

// TestFederationMatchesOracle drives a federation through an interleaved
// subscribe/unsubscribe/publish script and requires the delivered
// (subscriber, event) multiset to equal the naive oracle's: for each
// publish, boolexpr's Eval over the subscriptions live at that moment.
// Flush separates the churn and publish phases, so the expectation is
// exact with no timing in the test.
func TestFederationMatchesOracle(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		name := "plain"
		if coverOn {
			name = "cover"
		}
		t.Run(name, func(t *testing.T) {
			const nodes = 13
			nw := newNet(t, nodes, TreeEdges(nodes, 2), Options{Cover: coverOn})
			got := newRecorder()
			want := map[string][]int64{}

			rng := rand.New(rand.NewSource(23))
			type sub struct {
				ref    SubRef
				filter boolexpr.Expr
			}
			live := map[string]sub{}
			var tags []string
			seq := int64(0)
			for round := 0; round < 20; round++ {
				for i := 0; i < 12; i++ {
					if rng.Intn(3) < 2 || len(tags) == 0 {
						tag := fmt.Sprintf("r%dc%d", round, i)
						f := oracleFilter(rng)
						ref, err := nw.Node(rng.Intn(nodes)).Subscribe(f, got.handler(tag))
						if err != nil {
							t.Fatal(err)
						}
						live[tag] = sub{ref: ref, filter: f}
						tags = append(tags, tag)
					} else {
						j := rng.Intn(len(tags))
						tag := tags[j]
						tags[j] = tags[len(tags)-1]
						tags = tags[:len(tags)-1]
						ref := live[tag].ref
						delete(live, tag)
						if err := nw.Node(home(ref)).Unsubscribe(ref); err != nil {
							t.Fatal(err)
						}
					}
				}
				nw.Flush()

				for i := 0; i < 15; i++ {
					seq++
					ev := bandEvent(rng.Intn(3), rng.Intn(130)).Set("seq", seq)
					for tag, s := range live {
						if s.filter.Eval(ev) {
							want[tag] = append(want[tag], seq)
						}
					}
					if err := nw.Node(rng.Intn(nodes)).Publish(ev); err != nil {
						t.Fatal(err)
					}
				}
				nw.Flush()
			}

			delivered := got.snapshot()
			if len(delivered) != len(want) {
				t.Errorf("%d subscribers received events, oracle expects %d", len(delivered), len(want))
			}
			for tag, ws := range want {
				if gs := delivered[tag]; fmt.Sprint(gs) != fmt.Sprint(ws) {
					t.Errorf("subscriber %s: delivered %v, oracle %v", tag, gs, ws)
				}
			}
			st := nw.Stats()
			if st.HopDropped != 0 || st.InstallErrors != 0 {
				t.Errorf("drops/anomalies: %+v", st)
			}
			if coverOn && st.CoverSuppressed == 0 {
				t.Error("federation never suppressed a flood under cover")
			}
		})
	}
}

// TestHandshakeValidation exercises the link vetoes: self node IDs, version
// mismatches, duplicate links.
func TestHandshakeValidation(t *testing.T) {
	b := startBroker(t, 7, false)

	// A peer claiming our own node ID is rejected.
	imp := NewBroker(Options{NodeID: 7})
	defer imp.Close()
	if err := imp.Connect(b.Addr().String()); !errors.Is(err, ErrHandshake) {
		t.Errorf("self-ID connect err = %v, want ErrHandshake", err)
	}

	// A wrong protocol version is rejected (raw frame, no Broker).
	nc, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.AppendHello(nil, wire.FederationVersion+1, 99)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(nc); err == nil {
		t.Error("version-mismatch hello got a reply; want connection close")
	}

	// A second link to the same peer is refused by the dialer's own table.
	other := startBroker(t, 8, false)
	if err := other.Connect(b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := other.Connect(b.Addr().String()); !errors.Is(err, ErrHandshake) {
		t.Errorf("duplicate connect err = %v, want ErrHandshake", err)
	}

	// Subscribing with a non-wire-encodable filter fails synchronously.
	if _, err := b.Subscribe(nil, func(event.Event) {}); err == nil {
		t.Error("nil filter accepted")
	}
	if _, err := b.Subscribe(band(1, 10), nil); err == nil {
		t.Error("nil handler accepted")
	}

	// Unsubscribing a foreign or unknown ref fails.
	if err := b.Unsubscribe(SubRef{id: 12345}); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("unknown unsubscribe err = %v", err)
	}
}

// TestPeerDisconnectRetractsRoutes kills the subscriber's broker and checks
// the survivors stop forwarding its way: the dead peer's routes are
// retracted network-wide instead of black-holing events.
func TestPeerDisconnectRetractsRoutes(t *testing.T) {
	brokers := buildTree(t, 3, false) // 0 is hub, 1 and 2 leaves
	if _, err := brokers[2].Subscribe(band(1, 100), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	Flush(brokers...)
	if before := brokers[0].Stats(); before.Peers != 2 {
		t.Fatalf("hub peers = %d, want 2", before.Peers)
	}

	brokers[2].Close()
	// With the closed broker in the set, Flush waits for the hub to notice
	// the dead link and retract its routes.
	Flush(brokers...)
	if peers := brokers[0].Stats().Peers; peers != 1 {
		t.Fatalf("hub peers = %d after flush, want 1", peers)
	}

	before := brokers[0].Stats().Forwarded
	if err := brokers[0].Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	Flush(brokers...)
	if after := brokers[0].Stats().Forwarded; after != before {
		t.Errorf("hub still forwarded %d copies toward the dead subscriber", after-before)
	}
}

// TestCoverRestartedOriginReusesID pins that covering leaves no retired
// subscription ID on the wire. Broker 4's subscription X creates the hub's
// link node toward broker 2, and the hub's own identical Y joins it. When
// 4 dies, broker 2 must come to know that filter by Y's ID, because a
// broker restarted under node ID 4 numbers its subscriptions from 1 again:
// its first, a different filter, reuses X's ID. That subscription must be
// installed everywhere, and retracting it must not retract Y at broker 2.
func TestCoverRestartedOriginReusesID(t *testing.T) {
	start := func(id uint32) *Broker {
		return startBrokerOpts(t, Options{NodeID: id, Cover: true, Logf: t.Logf})
	}
	hub, edge, origin := start(1), start(2), start(4)
	for _, b := range []*Broker{edge, origin} {
		if err := b.Connect(hub.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := origin.Subscribe(band(1, 100), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	Flush(hub, edge, origin)
	var hubGot atomic.Int64
	if _, err := hub.Subscribe(band(1, 100), func(event.Event) { hubGot.Add(1) }); err != nil {
		t.Fatal(err)
	}
	Flush(hub, edge, origin)

	origin.Close()
	Flush(hub, edge, origin) // the hub detaches origin and retracts its routes
	restarted := start(4)
	if err := restarted.Connect(hub.Addr().String()); err != nil {
		t.Fatal(err)
	}
	var restartedGot atomic.Int64
	ref, err := restarted.Subscribe(band(2, 100), func(event.Event) { restartedGot.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	Flush(hub, edge, restarted)

	publish := func(ev event.Event) {
		t.Helper()
		if err := edge.Publish(ev); err != nil {
			t.Fatal(err)
		}
		Flush(hub, edge, restarted)
	}
	publish(bandEvent(2, 5))
	publish(bandEvent(1, 5))
	if got := restartedGot.Load(); got != 1 {
		t.Errorf("restarted broker's subscription got %d events from the edge, want 1", got)
	}
	if err := restarted.Unsubscribe(ref); err != nil {
		t.Fatal(err)
	}
	Flush(hub, edge, restarted)
	publish(bandEvent(1, 6))
	if got := hubGot.Load(); got != 2 {
		t.Errorf("hub's subscription got %d events from the edge, want 2", got)
	}
	var anomalies uint64
	for _, b := range []*Broker{hub, edge, origin, restarted} {
		anomalies += b.Stats().InstallErrors
	}
	if anomalies != 0 {
		t.Errorf("%d routing anomalies, want 0", anomalies)
	}
}

// TestFederationGoroutineLeak closes a worked federation and requires the
// goroutine count to return to its pre-test level.
func TestFederationGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	brokers := buildTree(t, 5, true)
	var delivered atomic.Int64
	if _, err := brokers[4].Subscribe(band(1, 100), func(event.Event) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	Flush(brokers...)
	if err := brokers[0].Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	Flush(brokers...)
	if n := delivered.Load(); n != 1 {
		t.Errorf("delivered %d times, want once", n)
	}
	for _, b := range brokers {
		b.Close()
	}
	assertNoGoroutineLeak(t, before)
}

// TestTracePropagationAcrossFederation runs a 3-broker line A—B—C with
// tracing on, events published at A and a subscriber at C, and checks the trace machinery
// end to end: every sampled event leaves exactly one hop record at each
// broker it crossed (B at hop 1, C at hop 2, none at the origin), the
// records' timestamps are monotone along the path, and the hop-latency
// histograms fill only where hops were received.
func TestTracePropagationAcrossFederation(t *testing.T) {
	// Only A publishes, so only A's sampling matters.
	nw := newNet(t, 3, LineEdges(3), Options{TraceSampleEvery: 2})
	a, bb, c := nw.Node(0), nw.Node(1), nw.Node(2)
	var delivered atomic.Int64
	if _, err := c.Subscribe(boolexpr.Pred("n", predicate.Ge, int64(0)), func(event.Event) {
		delivered.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	nw.Flush()

	const events = 10 // TraceSampleEvery 2 → 5 traced
	for i := 0; i < events; i++ {
		if err := a.Publish(event.New().Set("n", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	nw.Flush()

	if delivered.Load() != events {
		t.Fatalf("delivered = %d, want %d", delivered.Load(), events)
	}
	const traced = events / 2
	// One hop record per forward: the middle and far brokers each saw
	// every traced event once; the origin records no hop of its own.
	if got := a.Traces().Recent(); len(got) != 0 {
		t.Errorf("origin broker recorded %d hop records, want 0: %+v", len(got), got)
	}
	hopsB, hopsC := bb.Traces().Recent(), c.Traces().Recent()
	if len(hopsB) != traced || len(hopsC) != traced {
		t.Fatalf("hop records B=%d C=%d, want %d each", len(hopsB), len(hopsC), traced)
	}
	byID := func(rs []obs.TraceRecord) map[uint64]obs.TraceRecord {
		m := make(map[uint64]obs.TraceRecord, len(rs))
		for _, r := range rs {
			if _, dup := m[r.TraceID]; dup {
				t.Errorf("trace %#x recorded twice at node %s", r.TraceID, r.Node)
			}
			m[r.TraceID] = r
		}
		return m
	}
	mb, mc := byID(hopsB), byID(hopsC)
	for id, rb := range mb {
		rc, ok := mc[id]
		if !ok {
			t.Errorf("trace %#x seen at B but not at C", id)
			continue
		}
		if rb.Node != "2" || rc.Node != "3" {
			t.Errorf("trace %#x nodes = %s,%s, want 2,3", id, rb.Node, rc.Node)
		}
		if rb.Hops != 1 || rc.Hops != 2 {
			t.Errorf("trace %#x hops = %d,%d, want 1,2", id, rb.Hops, rc.Hops)
		}
		if rb.OriginNanos != rc.OriginNanos {
			t.Errorf("trace %#x origin stamp changed in flight: %d vs %d", id, rb.OriginNanos, rc.OriginNanos)
		}
		// Monotone along the path: origin ≤ arrival at B ≤ arrival at C
		// (one machine, one clock).
		if rb.ArrivalNanos < rb.OriginNanos || rc.ArrivalNanos < rb.ArrivalNanos {
			t.Errorf("trace %#x timestamps not monotone: origin %d, B %d, C %d",
				id, rb.OriginNanos, rb.ArrivalNanos, rc.ArrivalNanos)
		}
	}
	// The hop-latency histogram fills exactly where hops were received.
	for _, probe := range []struct {
		name string
		b    *Broker
		want uint64
	}{{"A", a, 0}, {"B", bb, traced}, {"C", c, traced}} {
		s, ok := probe.b.Metrics().Get("netoverlay_hop_latency_seconds")
		if !ok {
			t.Fatalf("%s: hop latency histogram missing", probe.name)
		}
		if s.Hist.Count != probe.want {
			t.Errorf("%s: hop latency count = %d, want %d", probe.name, s.Hist.Count, probe.want)
		}
	}
	// Per-peer forwarded counters saw every event cross their link.
	for _, probe := range []struct {
		name string
		b    *Broker
		peer uint32
	}{{"A→B", a, 2}, {"B→C", bb, 3}} {
		s, ok := probe.b.Metrics().Get(peerInstrument("netoverlay_peer_forwarded_total", probe.peer))
		if !ok {
			t.Fatalf("%s: per-peer forwarded counter missing", probe.name)
		}
		if s.Value != events {
			t.Errorf("%s: forwarded = %d, want %d", probe.name, s.Value, events)
		}
	}
}
