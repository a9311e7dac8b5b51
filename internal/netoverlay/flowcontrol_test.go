package netoverlay

import (
	"strings"
	"sync"
	"sync/atomic"
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
	Settle(settleIdle, hub, leaf)

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
	Settle(settleIdle, hub)
	before := hub.Stats().Forwarded
	if err := hub.Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, hub)
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
// deliveries continue.
func TestSlowPeerShedsThenEvicted(t *testing.T) {
	const highWater = 32 << 10
	hub := startBrokerOpts(t, Options{
		NodeID:             1,
		LinkHighWater:      highWater,
		CongestionDeadline: 150 * time.Millisecond,
		PingInterval:       -1,
		ReadIdleTimeout:    -1, // isolate eviction: only congestion may kill links here
		Logf:               t.Logf,
	})
	proxy, err := chaos.NewProxy(hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	slow := startBrokerOpts(t, Options{NodeID: 2, PingInterval: -1, ReadIdleTimeout: -1, Logf: t.Logf})
	if err := slow.Connect(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	healthy := startBrokerOpts(t, Options{NodeID: 3, PingInterval: -1, ReadIdleTimeout: -1, Logf: t.Logf})
	if err := healthy.Connect(hub.Addr().String()); err != nil {
		t.Fatal(err)
	}

	// The slow peer wants everything; the healthy peer a narrow band.
	if _, err := slow.Subscribe(band(1, 1000), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	var healthyGot atomic.Uint64
	if _, err := healthy.Subscribe(band(1, 10), func(event.Event) {
		healthyGot.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, hub, slow, healthy)

	// Storm through the stalled relay until the monitor evicts the peer.
	// Loopback socket buffers absorb megabytes before the spill queue fills
	// durably — early sheds are transient (the queue drains back below the
	// low watermark as the socket keeps absorbing), so a fixed event count
	// or a first-shed stop would pass on the old unbounded queue too. The
	// storm events (price 500) match only the slow peer's wide filter, so
	// the queue-byte bound is the slow link's alone.
	proxy.Stall()
	pad := strings.Repeat("x", 8<<10)
	var st Stats
	var maxQueued uint64
	for i := 0; i < 20000; i++ {
		ev := bandEvent(1, 500).Set("pad", pad).Set("seq", int64(i))
		if err := hub.Publish(ev); err != nil {
			t.Fatal(err)
		}
		st = hub.Stats()
		if st.QueuedBytes > maxQueued {
			maxQueued = st.QueuedBytes
		}
		if st.Evicted > 0 {
			break
		}
		if i%50 == 49 {
			// Give the monitor air: sustained congestion needs wall time.
			time.Sleep(time.Millisecond)
		}
	}
	if st.Evicted != 1 {
		t.Fatalf("stalled peer not evicted after storm: %+v", st)
	}
	if st.Shed == 0 {
		t.Errorf("Shed = 0 after a storm into a stalled peer: %+v", st)
	}
	if st.SpilledBytes == 0 {
		t.Error("SpilledBytes = 0; accounting is dead")
	}
	// The spill queue stayed bounded by the watermark (one in-flight event
	// of slack for the admitted crossing push), not by the storm size.
	if maxQueued > 2*highWater {
		t.Errorf("peak QueuedBytes = %d, want <= %d: queue grew past the watermark", maxQueued, 2*highWater)
	}
	if st.Peers != 1 {
		t.Fatalf("Peers = %d after eviction, want 1 (healthy only)", st.Peers)
	}

	// Post-eviction, a matching event forwards only to the healthy peer and
	// still arrives there.
	Settle(settleIdle, hub, healthy)
	before, healthyBefore := hub.Stats().Forwarded, healthyGot.Load()
	if err := hub.Publish(bandEvent(1, 5).Set("seq", int64(9001))); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, hub, healthy)
	if d := hub.Stats().Forwarded - before; d != 1 {
		t.Errorf("hub forwarded %d copies after eviction, want 1 (healthy peer only)", d)
	}
	if healthyGot.Load() != healthyBefore+1 {
		t.Errorf("healthy subscriber deliveries = %d, want %d", healthyGot.Load(), healthyBefore+1)
	}
}
