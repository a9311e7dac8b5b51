package bench

import (
	"fmt"
	"strings"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/chaos"
	"noncanon/internal/event"
	"noncanon/internal/memmodel"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
)

// Chaos experiment (FC1) parameters: a deliberately small per-link byte
// budget and a short eviction deadline keep the fault cycle inside a bench
// run; padded storm events make queue bytes dominated by payload, the
// regime the watermark accounting is for.
const (
	chaosHighWater  = 64 << 10
	chaosDeadline   = 150 * time.Millisecond
	chaosPadBytes   = 8 << 10
	chaosStormCap   = 30_000
	chaosHeapBound  = 64 << 20
	chaosHeartbeats = 10 // one oracle heartbeat per this many storm events
)

// ChaosPhase is one phase of the FC1 fault cycle.
type ChaosPhase struct {
	Phase  string
	Events int // events published in this phase

	// Oracle verdict over the phase's tracked deliveries.
	Expected   int
	Delivered  int
	Missing    int
	Duplicated int

	// Flow-control counters at the root broker after the phase.
	Shed            uint64
	SpilledBytes    uint64
	PeakQueuedBytes uint64
	Evicted         uint64

	// HeapDeltaBytes is the peak live-heap growth over the pre-storm
	// baseline (storm phase only).
	HeapDeltaBytes int
}

// ChaosResult is the FC1 chaos run.
type ChaosResult struct {
	HighWater int
	Phases    []ChaosPhase
}

// chaosBand is an FC1 filter: category 1, price below hi. The greedy
// (stalled) subscriber takes a wide band, the healthy one a narrow band
// nested inside it, so covering and re-flood-before-retract are exercised
// by the eviction.
func chaosBand(hi int64) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(1)),
		boolexpr.Pred("price", predicate.Lt, hi),
	)
}

// recordSeq subscribes a fresh oracle to filter on b, recording each
// delivered event's seq.
func recordSeq(b *netoverlay.Broker, filter boolexpr.Expr) (*chaos.Oracle, error) {
	o := chaos.NewOracle()
	_, err := b.Subscribe(filter, func(ev event.Event) {
		v, _ := ev.Get("seq")
		o.Record(uint64(v.Int()))
	})
	return o, err
}

func chaosEvent(price int64, seq int) event.Event {
	return event.New().Set("cat", int64(1)).Set("price", price).Set("seq", int64(seq))
}

// MeasureChaos runs the FC1 fault cycle against a real loopback-TCP
// federation: a root broker with a tight link byte budget, a healthy
// narrow subscriber, and a greedy wide subscriber connected through a
// stallable relay.
//
// Phase storm: the relay freezes (a half-open peer: connections open,
// nothing moves) and the root publishes padded wide-matching events until
// flow control sheds and the link's clock evicts the peer — while
// interleaved heartbeat events prove the healthy subscriber still gets
// exactly-once delivery and the live heap stays bounded by the watermark
// budget, not the storm size (the old unbounded queue grew linearly here).
//
// Phase evict: after eviction the dead peer's routes are retracted — a
// matching publish forwards only to the healthy peer.
//
// Phase recover: the evicted broker is killed and a replacement with the
// same node ID reconnects (directly), re-subscribes, and both subscribers
// see every new event exactly once.
func MeasureChaos(cfg Config) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := ChaosResult{HighWater: chaosHighWater}

	newBroker := func(id uint32, opts netoverlay.Options) *netoverlay.Broker {
		opts.NodeID = id
		opts.Cover = true
		return netoverlay.NewBroker(opts)
	}
	root := newBroker(1, netoverlay.Options{
		LinkHighWater:      chaosHighWater,
		CongestionDeadline: chaosDeadline,
	})
	defer root.Close()
	rootAddr, err := root.Listen("127.0.0.1:0")
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos listen: %w", err)
	}

	healthy := newBroker(2, netoverlay.Options{})
	defer healthy.Close()
	if err := healthy.Connect(rootAddr.String()); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos link healthy: %w", err)
	}
	heartbeatOracle, err := recordSeq(healthy, chaosBand(10))
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos subscribe healthy: %w", err)
	}

	proxy, err := chaos.NewProxy(rootAddr.String())
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos proxy: %w", err)
	}
	defer proxy.Close()
	greedy := newBroker(3, netoverlay.Options{})
	defer greedy.Close()
	if err := greedy.Connect(proxy.Addr()); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos link greedy: %w", err)
	}
	if _, err := greedy.Subscribe(chaosBand(1000), func(event.Event) {}); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos subscribe greedy: %w", err)
	}
	netoverlay.Flush(root, healthy, greedy)

	// --- phase storm ---
	heapBase := memmodel.HeapInuseBytes()
	proxy.Stall()
	pad := strings.Repeat("x", chaosPadBytes)
	storm := ChaosPhase{Phase: "storm"}
	heartbeats := 0
	var heapPeak int
	var st netoverlay.Stats
	for i := 0; i < chaosStormCap; i++ {
		// Wide-only events (price 500) feed the stalled link; periodic
		// heartbeats (price 5) also match the healthy narrow band and are
		// oracle-tracked.
		if err := root.Publish(chaosEvent(500, i).Set("pad", pad)); err != nil {
			return ChaosResult{}, fmt.Errorf("bench: chaos storm publish: %w", err)
		}
		storm.Events++
		if i%chaosHeartbeats == 0 {
			if err := root.Publish(chaosEvent(5, heartbeats)); err != nil {
				return ChaosResult{}, fmt.Errorf("bench: chaos heartbeat publish: %w", err)
			}
			storm.Events++
			heartbeats++
		}
		st = root.Stats()
		if st.QueuedBytes > storm.PeakQueuedBytes {
			storm.PeakQueuedBytes = st.QueuedBytes
		}
		if st.Evicted > 0 {
			break
		}
		if i%50 == 49 {
			// Sustained congestion needs wall time for the link clock to see.
			time.Sleep(time.Millisecond)
		}
		if i%2000 == 1999 {
			if h := memmodel.HeapInuseBytes(); h > heapPeak {
				heapPeak = h
			}
		}
	}
	// The storm stops at eviction; if the cap ran out first the congestion
	// is durable by now, so give the link clock one deadline's grace.
	for end := time.Now().Add(10 * chaosDeadline); root.Stats().Evicted == 0 && time.Now().Before(end); {
		time.Sleep(chaosDeadline / 10)
	}
	if h := memmodel.HeapInuseBytes(); h > heapPeak {
		heapPeak = h
	}
	netoverlay.Flush(root, healthy)

	st = root.Stats()
	storm.Shed, storm.SpilledBytes, storm.Evicted = st.Shed, st.SpilledBytes, st.Evicted
	if d := heapPeak - heapBase; d > 0 {
		storm.HeapDeltaBytes = d
	}
	v := heartbeatOracle.Verify(0, uint64(heartbeats))
	storm.Expected, storm.Delivered, storm.Missing, storm.Duplicated =
		v.Expected, v.Delivered, v.Missing, v.Duplicated
	res.Phases = append(res.Phases, storm)

	if st.Evicted != 1 {
		return ChaosResult{}, fmt.Errorf("bench: chaos: stalled peer not evicted after %d events (stats %+v)", storm.Events, st)
	}
	if st.Shed == 0 || st.SpilledBytes == 0 {
		return ChaosResult{}, fmt.Errorf("bench: chaos: no shed/spill accounting under storm (stats %+v)", st)
	}
	if err := v.Err(); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos: healthy subscriber lost events while connected: %w", err)
	}
	if storm.HeapDeltaBytes > chaosHeapBound {
		return ChaosResult{}, fmt.Errorf("bench: chaos: heap grew %s under storm, bound %s — spill queue is not bounded",
			memmodel.FormatBytes(storm.HeapDeltaBytes), memmodel.FormatBytes(chaosHeapBound))
	}

	// --- phase evict: routes retracted, healthy delivery intact ---
	evict := ChaosPhase{Phase: "evict", Evicted: st.Evicted}
	forwardedBefore := st.Forwarded
	evictOracle, err := recordSeq(healthy, chaosBand(20))
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos subscribe post-evict: %w", err)
	}
	netoverlay.Flush(root, healthy)
	const evictEvents = 50
	for i := 0; i < evictEvents; i++ {
		if err := root.Publish(chaosEvent(15, i)); err != nil {
			return ChaosResult{}, fmt.Errorf("bench: chaos evict publish: %w", err)
		}
	}
	netoverlay.Flush(root, healthy)
	evict.Events = evictEvents
	v = evictOracle.Verify(0, evictEvents)
	evict.Expected, evict.Delivered, evict.Missing, evict.Duplicated =
		v.Expected, v.Delivered, v.Missing, v.Duplicated
	st = root.Stats()
	evict.Shed, evict.SpilledBytes = st.Shed, st.SpilledBytes
	res.Phases = append(res.Phases, evict)
	if err := v.Err(); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos: post-eviction delivery broken: %w", err)
	}
	// price 15 is outside the healthy broker's original narrow band (10)
	// but inside the new band (20) and the dead peer's wide band: each
	// event must forward exactly once (healthy), never toward the evicted
	// link.
	if d := st.Forwarded - forwardedBefore; d != evictEvents {
		return ChaosResult{}, fmt.Errorf("bench: chaos: %d forwards for %d post-eviction events; routes not retracted cleanly",
			d, evictEvents)
	}

	// --- phase recover: kill the evicted broker, restart, full delivery ---
	greedy.Close()
	proxy.Close()
	reborn := newBroker(3, netoverlay.Options{})
	defer reborn.Close()
	if err := reborn.Connect(rootAddr.String()); err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos reconnect: %w", err)
	}
	rebornOracle, err := recordSeq(reborn, chaosBand(1000))
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos re-subscribe: %w", err)
	}
	recoverOracle, err := recordSeq(healthy, chaosBand(1000))
	if err != nil {
		return ChaosResult{}, fmt.Errorf("bench: chaos subscribe recover: %w", err)
	}
	netoverlay.Flush(root, healthy, reborn)

	recover := ChaosPhase{Phase: "recover"}
	events := scaleCount(500, cfg.Scale)
	for i := 0; i < events; i++ {
		if err := root.Publish(chaosEvent(900, i)); err != nil {
			return ChaosResult{}, fmt.Errorf("bench: chaos recover publish: %w", err)
		}
	}
	netoverlay.Flush(root, healthy, reborn)
	recover.Events = events
	for _, o := range []*chaos.Oracle{rebornOracle, recoverOracle} {
		v = o.Verify(0, uint64(events))
		recover.Expected += v.Expected
		recover.Delivered += v.Delivered
		recover.Missing += v.Missing
		recover.Duplicated += v.Duplicated
	}
	st = root.Stats()
	recover.Shed, recover.SpilledBytes, recover.Evicted = st.Shed, st.SpilledBytes, st.Evicted
	res.Phases = append(res.Phases, recover)
	if recover.Missing != 0 || recover.Duplicated != 0 {
		return ChaosResult{}, fmt.Errorf("bench: chaos: post-restart delivery broken: %d missing, %d duplicated of %d",
			recover.Missing, recover.Duplicated, recover.Expected)
	}
	for _, b := range []*netoverlay.Broker{root, healthy, reborn} {
		if bst := b.Stats(); bst.HopDropped != 0 || bst.InstallErrors != 0 {
			return ChaosResult{}, fmt.Errorf("bench: chaos node %d: drops/anomalies %+v", b.NodeID(), bst)
		}
	}
	return res, nil
}

func chaosTable(cfg Config) (*Table, error) {
	res, err := MeasureChaos(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{fmt.Sprintf("link high watermark %s, eviction deadline %v; oracle-checked exactly-once while connected",
			memmodel.FormatBytes(res.HighWater), chaosDeadline)},
		Columns: []Column{{"phase", "%s"}, {"events", "%d"}, {"expected", "%d"}, {"delivered", "%d"}, {"missing", "%d"},
			{"duplicated", "%d"}, {"shed", "%d"}, {"spilled_bytes", "%d"}, {"peak_queued_bytes", "%d"}, {"evicted", "%d"},
			{"heap_delta_bytes", "%d"}},
	}
	for _, p := range res.Phases {
		t.Rows = append(t.Rows, []any{p.Phase, p.Events, p.Expected, p.Delivered, p.Missing, p.Duplicated,
			p.Shed, p.SpilledBytes, p.PeakQueuedBytes, p.Evicted, p.HeapDeltaBytes})
	}
	return t, nil
}
