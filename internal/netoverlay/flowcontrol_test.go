package netoverlay

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"noncanon/internal/chaos"
	"noncanon/internal/event"
)

// startBrokerOpts is startBroker with full control over the options.
func startBrokerOpts(t *testing.T, opts Options) *Broker {
	t.Helper()
	b := NewBroker(opts)
	if _, err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestCloseDuringDetachRace drives Broker.Close concurrently with a peer
// detach (the remote side closing its end) over many rounds. Run under
// -race: detach used to enqueue the route-retraction ctl even while the
// broker was shutting down, racing Close's teardown of the routing state.
func TestCloseDuringDetachRace(t *testing.T) {
	for i := 0; i < 25; i++ {
		a := NewBroker(Options{NodeID: 1})
		if _, err := a.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		b := NewBroker(Options{NodeID: 2})
		if err := b.Connect(a.Addr().String()); err != nil {
			a.Close()
			b.Close()
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		// b's close makes a's readLoop detach; a's close races it.
		go func() { defer wg.Done(); b.Close() }()
		go func() { defer wg.Done(); a.Close() }()
		wg.Wait()
	}
}

// TestQuiescentSeesFramesInFlight pins Flush's exactness over TCP: an
// event written into a stalled relay sits in no broker's inbox or queue,
// yet the two brokers are not quiescent until the leaf has read it.
func TestQuiescentSeesFramesInFlight(t *testing.T) {
	quiet := Options{PingInterval: -1, ReadIdleTimeout: -1, Logf: t.Logf}
	quiet.NodeID = 1
	hub := startBrokerOpts(t, quiet)
	proxy, err := chaos.NewProxy(hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	quiet.NodeID = 2
	leaf := startBrokerOpts(t, quiet)
	if err := leaf.Connect(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	got := newRecorder()
	if _, err := leaf.Subscribe(band(1, 100), got.handler("leaf")); err != nil {
		t.Fatal(err)
	}
	Flush(hub, leaf)

	proxy.Stall()
	if err := hub.Publish(bandEvent(1, 5).Set("seq", int64(1))); err != nil {
		t.Fatal(err)
	}
	Flush(hub) // the leaf is outside the set: returns once the hub wrote the event
	if quiescent([]*Broker{hub, leaf}) {
		t.Fatal("quiescent with an event stalled between hub and leaf")
	}
	proxy.Resume()
	Flush(hub, leaf)
	if d := got.snapshot()["leaf"]; fmt.Sprint(d) != "[1]" {
		t.Errorf("leaf delivered %v, want [1]: the event exactly once", d)
	}
}

// TestFastPingsKeepFlushExact runs subscribe/publish rounds while every
// link pings each millisecond, on a 3-node Network and on one TCP pair.
// Pings share the spill queue and the connection with routing traffic, so
// each Flush must still return and find every delivery made exactly once.
func TestFastPingsKeepFlushExact(t *testing.T) {
	fast := Options{PingInterval: time.Millisecond, Logf: t.Logf}
	t.Run("network", func(t *testing.T) {
		nw := newNet(t, 3, LineEdges(3), fast)
		pingRounds(t, []*Broker{nw.Node(0), nw.Node(1), nw.Node(2)})
	})
	t.Run("tcp", func(t *testing.T) {
		fast.NodeID = 1
		a := startBrokerOpts(t, fast)
		fast.NodeID = 2
		b := startBrokerOpts(t, fast)
		if err := b.Connect(a.Addr().String()); err != nil {
			t.Fatal(err)
		}
		pingRounds(t, []*Broker{a, b})
	})
}

// pingRounds subscribes at one broker per round, retracts the subscription
// made len(brokers) rounds earlier and publishes once at every broker,
// with a Flush after each step. It checks the deliveries after every round,
// and stops once the links have written at least 30 pings.
func pingRounds(t *testing.T, brokers []*Broker) {
	n := len(brokers)
	got, want := newRecorder(), map[string][]int64{}
	refs := map[int]SubRef{}
	for r := 0; pingsWritten(brokers) < 30; r++ {
		if r == 10000 {
			t.Fatalf("%d pings written after %d rounds", pingsWritten(brokers), r)
		}
		if old, ok := refs[r-n]; ok {
			if err := brokers[r%n].Unsubscribe(old); err != nil {
				t.Fatal(err)
			}
			delete(refs, r-n)
		}
		ref, err := brokers[r%n].Subscribe(band(1, 100), got.handler(fmt.Sprint(r)))
		if err != nil {
			t.Fatal(err)
		}
		refs[r] = ref
		Flush(brokers...)
		for i, b := range brokers {
			seq := int64(r*n + i)
			if err := b.Publish(bandEvent(1, 5).Set("seq", seq)); err != nil {
				t.Fatal(err)
			}
			for k := range refs {
				want[fmt.Sprint(k)] = append(want[fmt.Sprint(k)], seq)
			}
		}
		Flush(brokers...)
		if d := got.snapshot(); fmt.Sprint(d) != fmt.Sprint(want) {
			t.Fatalf("round %d: delivered %v, want %v", r, d, want)
		}
	}
}

// pingsWritten is how many frames the brokers' links have written beyond
// their routing messages; after a Flush those are all written.
func pingsWritten(brokers []*Broker) uint64 {
	var n uint64
	for _, b := range brokers {
		b.mu.Lock()
		for _, p := range b.peers {
			n += p.written.Load()
		}
		b.mu.Unlock()
		st := b.Stats()
		n -= st.SubscriptionMsgs + st.Forwarded
	}
	return n
}

// TestHalfOpenPeerDetachedByIdleTimeout severs a link without FIN (a
// stalled relay: connections stay open, nothing moves) and checks the
// idle-read deadline detaches the silent peer and retracts its routes —
// the leak was that only a write ever noticed a dead peer, so a quiet
// subscriber's routes stayed installed forever.
func TestHalfOpenPeerDetachedByIdleTimeout(t *testing.T) {
	hub := startBrokerOpts(t, Options{
		NodeID:          1,
		ReadIdleTimeout: 250 * time.Millisecond,
		PingInterval:    -1, // silence ourselves: only the peer's traffic can keep the link alive
		Logf:            t.Logf,
	})
	proxy, err := chaos.NewProxy(hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	leaf := startBrokerOpts(t, Options{
		NodeID:       2,
		PingInterval: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err := leaf.Connect(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := leaf.Subscribe(band(1, 100), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	Flush(hub, leaf)

	// While the leaf's pings flow, the link survives several idle windows.
	time.Sleep(4 * 250 * time.Millisecond)
	if peers := hub.Stats().Peers; peers != 1 {
		t.Fatalf("hub peers = %d with live pings, want 1", peers)
	}

	// Freeze the relay: both TCP connections stay open, all traffic stops.
	proxy.Stall()
	deadline := time.Now().Add(10 * time.Second)
	for hub.Stats().Peers != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if peers := hub.Stats().Peers; peers != 0 {
		t.Fatalf("hub peers = %d after half-open stall, want 0", peers)
	}

	// The dead peer's routes are gone: publishing a matching event forwards
	// nowhere.
	Flush(hub)
	before := hub.Stats().Forwarded
	if err := hub.Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	Flush(hub)
	if after := hub.Stats().Forwarded; after != before {
		t.Errorf("hub forwarded %d copies toward the half-open peer", after-before)
	}
}

// TestStatsReadsPeersAfterEvictions pins the snapshot order Stats relies
// on: eviction is counted only after the peer left the table, and
// Registry.Snapshot reads in reverse registration order, so the peer gauge
// must be registered before the eviction counter. Otherwise a Stats taken
// between the two steps shows the eviction and still counts the evicted
// peer, as TestSlowPeerShedsThenEvicted intermittently saw.
func TestStatsReadsPeersAfterEvictions(t *testing.T) {
	b := startBrokerOpts(t, Options{NodeID: 1})
	pos := map[string]int{}
	for k, s := range b.Metrics().Snapshot() {
		pos[s.Name] = k
	}
	peers, okP := pos["netoverlay_peers"]
	evicted, okE := pos["netoverlay_evicted_total"]
	if !okP || !okE || peers > evicted {
		t.Fatalf("registration positions: peers %d (%v), evicted %d (%v); want peers first", peers, okP, evicted, okE)
	}
}

// TestSlowPeerShedsThenEvicted is the flow-control core in miniature: a
// stalled peer's spill queue stops growing at the watermark (events shed
// and counted, queue bytes bounded), and once congested past the deadline
// the peer is evicted with full route retraction while a healthy peer's
// deliveries continue. A replacement broker under the evicted node ID then
// rejoins and gets every new event exactly once.
func TestSlowPeerShedsThenEvicted(t *testing.T) { stormStalledPeers(t, 1) }

// TestLinkClocksEvictOnlyTheirLinks runs the storm against two stalled
// peers beside a healthy one: each stalled link's own clock evicts it,
// once, and the healthy link is left alone.
func TestLinkClocksEvictOnlyTheirLinks(t *testing.T) { stormStalledPeers(t, 2) }

// stormStalledPeers runs the storm with covering off and on. With covering
// on, two stalled peers' identical wide bands share one node of the hub's
// poset for the healthy link; evicting the peer whose ID names that node
// re-announces it under the survivor's ID before retracting the old name.
func stormStalledPeers(t *testing.T, stalled int) {
	for _, cover := range []bool{false, true} {
		t.Run(fmt.Sprintf("cover=%v", cover), func(t *testing.T) { stormStalledCover(t, stalled, cover) })
	}
}

// stormStalledCover links a hub to `stalled` peers behind stalled relays
// and one healthy peer, storms events only the stalled peers want until
// every stalled link is evicted, and checks shedding, the queue bound and
// that the healthy peer gets each of its events exactly once: heartbeats
// during the storm, and a fresh subscription's events after eviction. With
// one stalled peer, a replacement under the evicted node ID then rejoins.
func stormStalledCover(t *testing.T, stalled int, cover bool) {
	const highWater = 32 << 10
	hub := startBrokerOpts(t, Options{
		NodeID:             1,
		Cover:              cover,
		LinkHighWater:      highWater,
		CongestionDeadline: 150 * time.Millisecond,
		PingInterval:       -1,
		ReadIdleTimeout:    -1, // isolate eviction: only congestion may kill links here
		Logf:               t.Logf,
	})
	quiet := func(id uint32) Options {
		return Options{NodeID: id, Cover: cover, PingInterval: -1, ReadIdleTimeout: -1, Logf: t.Logf}
	}
	var proxies []*chaos.Proxy
	brokers := []*Broker{hub}
	for i := 0; i < stalled; i++ {
		proxy, err := chaos.NewProxy(hub.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		slow := startBrokerOpts(t, quiet(uint32(2+i)))
		if err := slow.Connect(proxy.Addr()); err != nil {
			t.Fatal(err)
		}
		// The slow peers want everything; the healthy peer a narrow band.
		if _, err := slow.Subscribe(band(1, 1000), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
		proxies, brokers = append(proxies, proxy), append(brokers, slow)
	}
	healthy := startBrokerOpts(t, quiet(100))
	if err := healthy.Connect(hub.Addr().String()); err != nil {
		t.Fatal(err)
	}
	got := newRecorder()
	if _, err := healthy.Subscribe(band(1, 10), got.handler("heartbeat")); err != nil {
		t.Fatal(err)
	}
	Flush(append(brokers, healthy)...)

	// Storm through the stalled relays until every stalled link is
	// evicted. Loopback socket buffers absorb megabytes before a spill
	// queue fills durably — early sheds are transient (the queue drains
	// back below the low watermark as the socket keeps absorbing), so a
	// fixed event count or a first-shed stop would pass on an unbounded
	// queue too. The storm events (price 500) match only the slow peers'
	// wide filter, so the queue-byte bound is the stalled links' alone.
	// Every tenth storm event is followed by an unpadded heartbeat
	// (price 5) that the healthy peer's band matches too.
	for _, p := range proxies {
		p.Stall()
	}
	pad := strings.Repeat("x", 8<<10)
	var st Stats
	var maxQueued uint64
	heartbeats := 0
	for i := 0; i < 20000; i++ {
		ev := bandEvent(1, 500).Set("pad", pad).Set("seq", int64(i))
		if err := hub.Publish(ev); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := hub.Publish(bandEvent(1, 5).Set("seq", int64(heartbeats))); err != nil {
				t.Fatal(err)
			}
			heartbeats++
		}
		st = hub.Stats()
		if st.QueuedBytes > maxQueued {
			maxQueued = st.QueuedBytes
		}
		if st.Evicted >= uint64(stalled) {
			break
		}
		if i%50 == 49 {
			// Give the link clocks air: sustained congestion needs wall time.
			time.Sleep(time.Millisecond)
		}
	}
	if st.Evicted != uint64(stalled) {
		t.Fatalf("Evicted = %d after storm, want %d: %+v", st.Evicted, stalled, st)
	}
	// A link clock counts its eviction per peer before broker-wide, so
	// once Evicted reaches stalled every stalled link's own count is in.
	checkPeerEvictions(t, hub, stalled, "after the storm")
	if st.Shed == 0 {
		t.Errorf("Shed = 0 after a storm into a stalled peer: %+v", st)
	}
	if st.SpilledBytes == 0 {
		t.Error("SpilledBytes = 0; accounting is dead")
	}
	// Each spill queue stayed bounded by the watermark (one in-flight event
	// of slack for the admitted crossing push), not by the storm size.
	if bound := uint64(stalled * 2 * highWater); maxQueued > bound {
		t.Errorf("peak QueuedBytes = %d, want <= %d: queues grew past the watermark", maxQueued, bound)
	}
	if st.Peers != 1 {
		t.Fatalf("Peers = %d after eviction, want 1 (healthy only)", st.Peers)
	}
	Flush(hub, healthy)
	// The healthy link has the same watermark: a heartbeat missing below
	// shows here as shed by design (that link's queue filled while its
	// writer was starved), or as lost if this reads 0.
	healthyShed, _ := hub.Metrics().Get(peerInstrument("netoverlay_peer_shed_total", healthy.NodeID()))
	t.Logf("storm: %d heartbeats, %d shed (%d on the healthy link), %d delivered at the healthy peer, peak queue %d B",
		heartbeats, st.Shed, healthyShed.Value, healthy.Stats().Delivered, maxQueued)
	checkOnce(t, "storm heartbeats", got.snapshot()["heartbeat"], heartbeats)

	// Post-eviction, a fresh subscription at the healthy peer gets each
	// of its events exactly once, and each event forwards to that peer
	// alone. Price 15 is outside the healthy peer's first band but inside
	// the new one and the evicted peers' wide bands, so a route the
	// eviction left behind would add forwards.
	if _, err := healthy.Subscribe(band(1, 20), got.handler("fresh")); err != nil {
		t.Fatal(err)
	}
	Flush(hub, healthy)
	const freshEvents = 50
	before := hub.Stats().Forwarded
	for i := 0; i < freshEvents; i++ {
		if err := hub.Publish(bandEvent(1, 15).Set("seq", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	Flush(hub, healthy)
	if d := hub.Stats().Forwarded - before; d != freshEvents {
		t.Errorf("hub forwarded %d copies of %d events after eviction, want one each (healthy peer only)", d, freshEvents)
	}
	checkOnce(t, "post-eviction subscription", got.snapshot()["fresh"], freshEvents)

	if stalled == 1 {
		// The evicted broker dies, and a replacement under its node ID
		// connects directly and re-subscribes. It and a wide subscription
		// at the healthy peer each get every new event exactly once.
		brokers[1].Close()
		proxies[0].Close()
		reborn := startBrokerOpts(t, quiet(brokers[1].NodeID()))
		if err := reborn.Connect(hub.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if _, err := reborn.Subscribe(band(1, 1000), got.handler("reborn")); err != nil {
			t.Fatal(err)
		}
		if _, err := healthy.Subscribe(band(1, 1000), got.handler("wide")); err != nil {
			t.Fatal(err)
		}
		Flush(hub, healthy, reborn)
		const recoverEvents = 100
		for i := 0; i < recoverEvents; i++ {
			if err := hub.Publish(bandEvent(1, 900).Set("seq", int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		Flush(hub, healthy, reborn)
		seen := got.snapshot()
		checkOnce(t, "replacement broker", seen["reborn"], recoverEvents)
		checkOnce(t, "healthy peer after recovery", seen["wide"], recoverEvents)
		brokers = append(brokers, reborn)
	}
	for _, b := range append(brokers, healthy) {
		if bst := b.Stats(); bst.HopDropped != 0 || bst.InstallErrors != 0 {
			t.Errorf("node %d: %d hop drops, %d install errors, want none", b.NodeID(), bst.HopDropped, bst.InstallErrors)
		}
	}

	// Once Close has waited for every link clock, each stalled link still
	// reads one eviction: a replacement under its ID never was evicted.
	hub.Close()
	checkPeerEvictions(t, hub, stalled, "after Close")
}

// checkPeerEvictions fails unless each stalled peer's (node IDs 2 …
// stalled+1) netoverlay_peer_evicted_total on hub reads exactly 1.
func checkPeerEvictions(t *testing.T, hub *Broker, stalled int, when string) {
	t.Helper()
	for id := uint32(2); id < uint32(2+stalled); id++ {
		name := peerInstrument("netoverlay_peer_evicted_total", id)
		if s, ok := hub.Metrics().Get(name); !ok || s.Value != 1 {
			t.Errorf("%s: %s = %+v (%v), want 1: each stalled link evicted once", when, name, s, ok)
		}
	}
}

// checkOnce fails unless seqs holds each of 0 … n-1 exactly once.
func checkOnce(t *testing.T, what string, seqs []int64, n int) {
	t.Helper()
	counts := make([]int, n)
	stray := 0
	for _, s := range seqs {
		if s < 0 || s >= int64(n) {
			stray++
			continue
		}
		counts[s]++
	}
	missing, duplicated := 0, 0
	for _, c := range counts {
		switch {
		case c == 0:
			missing++
		case c > 1:
			duplicated++
		}
	}
	if missing+duplicated+stray > 0 {
		t.Errorf("%s: of %d events %d missing, %d duplicated, %d unexpected", what, n, missing, duplicated, stray)
	}
}
