package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
)

// FederatePoint is one node-count setting of the federation sweep (F1): the
// same workload routed through N real TCP-federated broker processes, with
// and without covering-pruned subscription forwarding.
type FederatePoint struct {
	Nodes int

	// Loopback-TCP publish throughput: events/s from first publish until
	// the federation quiesces, with covering off and on.
	EventsPerSecOff float64
	EventsPerSecOn  float64

	// Subscription flood link messages for the same registration sequence.
	FloodMsgsOff uint64
	FloodMsgsOn  uint64
	// Suppressed counts the forwards covering pruned.
	Suppressed uint64

	// Delivered is the total handler invocations across the federation —
	// identical for both configurations and equal to the matching oracle's
	// expectation (each (subscriber, event) match delivered exactly once);
	// MeasureFederate fails otherwise.
	Delivered uint64
}

// FederateResult is the federation sweep.
type FederateResult struct {
	Subscribers int
	Events      int
	Points      []FederatePoint
}

// federateNodeCounts returns the swept federation sizes (binary trees).
func federateNodeCounts() []int { return []int{3, 7, 15} }

// MeasureFederate measures what broker federation costs and covering buys
// when the brokers are genuinely distributed: N netoverlay brokers in one
// process, linked into a binary tree over real loopback TCP sockets,
// carrying power-law-popular nested band filters (coverFilter). For every
// point the measured deliveries are checked against a naive evaluation
// oracle — every matching (subscriber, event) pair exactly once, federation
// wide — so the experiment doubles as an end-to-end correctness smoke.
func MeasureFederate(cfg Config) (FederateResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(20_000, cfg.Scale)
	events := scaleCount(25_000, cfg.Scale)
	pool := coverPool(subs)
	res := FederateResult{Subscribers: subs, Events: events}
	for _, nodes := range federateNodeCounts() {
		pt := FederatePoint{Nodes: nodes}
		var deliveredOff, deliveredOn uint64
		var err error
		pt.EventsPerSecOff, pt.FloodMsgsOff, _, deliveredOff, err =
			federateRun(cfg, nodes, subs, events, pool, false)
		if err != nil {
			return FederateResult{}, err
		}
		pt.EventsPerSecOn, pt.FloodMsgsOn, pt.Suppressed, deliveredOn, err =
			federateRun(cfg, nodes, subs, events, pool, true)
		if err != nil {
			return FederateResult{}, err
		}
		if deliveredOff != deliveredOn {
			return FederateResult{}, fmt.Errorf(
				"bench: federate %d nodes: covering changed deliveries: %d plain, %d covered",
				nodes, deliveredOff, deliveredOn)
		}
		if pt.Suppressed == 0 {
			return FederateResult{}, fmt.Errorf(
				"bench: federate %d nodes: covering never suppressed a forward on the nested-band workload", nodes)
		}
		pt.Delivered = deliveredOff
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// federateRun registers the workload into a fresh loopback-TCP federation
// and measures flood messages and publish throughput, verifying deliveries
// against the naive oracle.
func federateRun(cfg Config, nodes, subs, events, pool int, coverOn bool) (eventsPerSec float64, floodMsgs, suppressed, delivered uint64, err error) {
	brokers := make([]*netoverlay.Broker, nodes)
	addrs := make([]string, nodes)
	defer func() {
		for _, b := range brokers {
			if b != nil {
				b.Close()
			}
		}
	}()
	for i := range brokers {
		brokers[i] = netoverlay.NewBroker(netoverlay.Options{NodeID: uint32(i + 1), Cover: coverOn})
		addr, err := brokers[i].Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate listen: %w", err)
		}
		addrs[i] = addr.String()
	}
	for i := 1; i < nodes; i++ {
		if err := brokers[i].Connect(addrs[(i-1)/2]); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate link %d->%d: %w", i, (i-1)/2, err)
		}
	}

	// Registration: the power-law draw, homed round the tree. counts[s][e] tracks
	// exactly-once delivery per (subscriber, event) pair.
	rng := rand.New(rand.NewSource(cfg.Seed + 211))
	ranks := powerRanks(rng, 1.1, subs, pool)
	filters := make([]boolexpr.Expr, subs)
	counts := make([][]uint32, subs)
	for s, r := range ranks {
		s := s
		filters[s] = coverFilter(r, pool)
		counts[s] = make([]uint32, events)
		home := brokers[rng.Intn(nodes)]
		if _, err := home.Subscribe(filters[s], func(ev event.Event) {
			v, _ := ev.Get("seq")
			atomic.AddUint32(&counts[s][v.Int()], 1)
		}); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate subscribe: %w", err)
		}
	}
	netoverlay.Flush(brokers...)

	evs := make([]event.Event, events)
	for e := range evs {
		evs[e] = coverEvent(rng, pool).Set("seq", int64(e))
	}
	origins := make([]int, events)
	for e := range origins {
		origins[e] = rng.Intn(nodes)
	}
	t0 := time.Now()
	for e, ev := range evs {
		if err := brokers[origins[e]].Publish(ev); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate publish: %w", err)
		}
	}
	netoverlay.Flush(brokers...)
	elapsed := time.Since(t0)

	// Exactly-once check against the naive oracle.
	for s := range counts {
		for e := range counts[s] {
			want := uint32(0)
			if filters[s].Eval(evs[e]) {
				want = 1
			}
			if got := atomic.LoadUint32(&counts[s][e]); got != want {
				return 0, 0, 0, 0, fmt.Errorf(
					"bench: federate %d nodes cover=%v: subscriber %d saw event %d %d times, want %d",
					nodes, coverOn, s, e, got, want)
			}
		}
	}
	for _, b := range brokers {
		st := b.Stats()
		floodMsgs += st.SubscriptionMsgs
		suppressed += st.CoverSuppressed
		delivered += st.Delivered
		if st.HopDropped != 0 || st.InstallErrors != 0 {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate node %d: drops/anomalies %+v", b.NodeID(), st)
		}
	}
	return float64(events) / elapsed.Seconds(), floodMsgs, suppressed, delivered, nil
}

func federateTable(cfg Config) (*Table, error) {
	res, err := MeasureFederate(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{
			fmt.Sprintf("%d subscribers (power-law 1.1 nested bands), %d events, binary broker tree over loopback TCP; _off/_on = covering", res.Subscribers, res.Events),
			"every (subscriber, event) match verified delivered exactly once, federation-wide",
		},
		Columns: []Column{{"nodes", "%d"}, {"events_s_off", "%.1f"}, {"events_s_on", "%.1f"},
			{"flood_off", "%d"}, {"flood_on", "%d"}, {"suppressed", "%d"}, {"delivered", "%d"}},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []any{p.Nodes, p.EventsPerSecOff, p.EventsPerSecOn,
			p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed, p.Delivered})
	}
	return t, nil
}
