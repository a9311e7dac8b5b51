// Command ncoverlay runs a broker overlay, in one of two modes.
//
// Simulation (default): N brokers in a line/star/tree topology inside one
// process, random Boolean subscriptions spread over the brokers, random
// events published at random brokers, routing statistics printed at the
// end.
//
// Federation (-listen / -peer): this process IS one broker, federated with
// other ncoverlay processes over real TCP using the wire protocol. Links
// must form a tree across the deployment; each process contributes -subs
// local subscriptions and publishes -events local events, then keeps
// serving for -hold before printing its routing statistics.
//
//	# process-per-broker quickstart: a three-broker line on one machine
//	ncoverlay -listen :7001 -id 1 -subs 50 -events 0 -hold 20s &
//	ncoverlay -listen :7002 -id 2 -peer localhost:7001 -subs 50 -events 0 -hold 15s &
//	ncoverlay -id 3 -peer localhost:7002 -subs 0 -events 1000
//
// With -cover, subscription flooding is pruned by covering (a filter is
// not forwarded past a link already carrying a broader one; see
// internal/cover) — the "sub flood msgs" statistic shows the saving.
//
// Usage:
//
//	ncoverlay -nodes 15 -topology tree -subs 200 -events 1000
//	ncoverlay -nodes 15 -topology tree -subs 200 -events 1000 -cover
//	ncoverlay -listen :7001 -id 1 -hold 30s
//	ncoverlay -id 2 -peer host:7001 -subs 100 -events 500 -cover
//
// With -metrics-addr, an operational endpoint serves Prometheus text on
// /metrics, JSON on /vars, recent hop traces on /traces and pprof on
// /debug/pprof/ (see internal/obs). In federation mode, -trace-every N
// stamps every Nth locally published event with a trace ID and origin
// timestamp that ride the wire: each broker the event crosses records the
// hop into its hop-latency histogram and trace ring.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/obs"
	"noncanon/internal/overlay"
	"noncanon/internal/workload"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 15, "broker count (simulation mode)")
		topology = flag.String("topology", "tree", "line | star | tree (simulation mode)")
		fanout   = flag.Int("fanout", 2, "tree fanout (simulation mode)")
		subs     = flag.Int("subs", 200, "subscription count (local to this process in federation mode)")
		events   = flag.Int("events", 1000, "events to publish (local in federation mode)")
		seed     = flag.Int64("seed", 1, "workload seed")
		coverOn  = flag.Bool("cover", false, "prune subscription flooding by covering (see internal/cover)")

		listen = flag.String("listen", "", "federation mode: accept peer brokers on this address")
		peers  = flag.String("peer", "", "federation mode: comma-separated parent broker addresses to link to")
		id     = flag.Uint("id", 0, "federation mode: this broker's node ID (distinct per process; required)")
		settle = flag.Duration("settle", 500*time.Millisecond, "federation mode: quiet window treated as quiescence")
		hold   = flag.Duration("hold", 0, "federation mode: keep serving this long after the local workload")

		highWater = flag.Int("link-highwater", 0, "per-link spill queue byte bound before event shedding starts (0 = default)")
		evict     = flag.Duration("evict-after", 0, "federation mode: evict a peer congested this long, retracting its routes (0 = default, <0 disables)")
		ping      = flag.Duration("ping", 0, "federation mode: keep-alive ping interval (0 = default, <0 disables)")
		readIdle  = flag.Duration("read-idle", 0, "federation mode: detach a peer silent this long (0 = default, <0 disables)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /vars, /traces and /debug/pprof on this address")
		traceEvery  = flag.Int("trace-every", 0, "federation mode: stamp every Nth local event with a cross-hop trace (0 disables)")
	)
	flag.Parse()
	var err error
	if *listen != "" || *peers != "" {
		err = runFederated(os.Stdout, fedConfig{
			ID:            uint32(*id),
			Listen:        *listen,
			Peers:         splitPeers(*peers),
			Subs:          *subs,
			Events:        *events,
			Seed:          *seed,
			Cover:         *coverOn,
			Settle:        *settle,
			Hold:          *hold,
			LinkHighWater: *highWater,
			EvictAfter:    *evict,
			Ping:          *ping,
			ReadIdle:      *readIdle,
			MetricsAddr:   *metricsAddr,
			TraceEvery:    *traceEvery,
		})
	} else {
		err = run(simConfig{
			Nodes: *nodes, Topology: *topology, Fanout: *fanout,
			Subs: *subs, Events: *events, Seed: *seed, Cover: *coverOn,
			LinkHighWater: *highWater,
			MetricsAddr:   *metricsAddr,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncoverlay:", err)
		os.Exit(1)
	}
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fedConfig parameterises one federated broker process.
type fedConfig struct {
	ID     uint32
	Listen string
	Peers  []string
	Subs   int
	Events int
	Seed   int64
	Cover  bool
	Settle time.Duration
	Hold   time.Duration

	// Flow control and liveness (zero values pick netoverlay defaults).
	LinkHighWater int
	EvictAfter    time.Duration
	Ping          time.Duration
	ReadIdle      time.Duration

	// MetricsAddr serves the operational endpoint; TraceEvery samples
	// every Nth local event for cross-hop tracing (0 disables each).
	MetricsAddr string
	TraceEvery  int
}

// dialRetry covers peers started in any order: a parent that is still
// coming up is retried for this long before the link fails.
const (
	dialRetry    = 10 * time.Second
	dialInterval = 200 * time.Millisecond
)

func runFederated(w io.Writer, cfg fedConfig) error {
	if cfg.ID == 0 {
		return fmt.Errorf("federation mode needs a distinct -id per process")
	}
	b := netoverlay.NewBroker(netoverlay.Options{
		NodeID:             cfg.ID,
		Cover:              cfg.Cover,
		TraceSampleEvery:   cfg.TraceEvery,
		LinkHighWater:      cfg.LinkHighWater,
		CongestionDeadline: cfg.EvictAfter,
		PingInterval:       cfg.Ping,
		ReadIdleTimeout:    cfg.ReadIdle,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	defer b.Close()
	if cfg.MetricsAddr != "" {
		ep := obs.Endpoint{Registry: b.Metrics(), Ring: b.Traces()}
		ln, err := ep.Serve(cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(w, "broker %d metrics on http://%s/metrics\n", cfg.ID, ln.Addr())
	}
	if cfg.Listen != "" {
		addr, err := b.Listen(cfg.Listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "broker %d listening on %s\n", cfg.ID, addr)
	}
	for _, p := range cfg.Peers {
		if err := connectRetry(b, p); err != nil {
			return err
		}
		fmt.Fprintf(w, "broker %d linked to %s\n", cfg.ID, p)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var delivered atomic.Int64
	for i := 0; i < cfg.Subs; i++ {
		if _, err := b.Subscribe(workload.StockSub(rng), func(event.Event) { delivered.Add(1) }); err != nil {
			return err
		}
	}
	b.Quiesce(cfg.Settle)

	var elapsed time.Duration
	if cfg.Events > 0 {
		start := time.Now()
		for i := 0; i < cfg.Events; i++ {
			if err := b.Publish(workload.StockEvent(rng, i)); err != nil {
				return err
			}
		}
		b.Quiesce(cfg.Settle)
		// Quiesce by construction spends its last cfg.Settle observing an
		// already-quiet broker; don't bill that to throughput.
		elapsed = time.Since(start) - cfg.Settle
		if elapsed <= 0 {
			elapsed = time.Millisecond
		}
	}
	if cfg.Hold > 0 {
		time.Sleep(cfg.Hold)
	}

	st := b.Stats()
	fmt.Fprintf(w, "broker          %d (federated, cover=%v)\n", cfg.ID, cfg.Cover)
	fmt.Fprintf(w, "peers           %d\n", st.Peers)
	fmt.Fprintf(w, "local subs      %d\n", cfg.Subs)
	if cfg.Events > 0 {
		fmt.Fprintf(w, "events          %d in %v (%.0f events/s)\n",
			cfg.Events, elapsed.Round(time.Millisecond), float64(cfg.Events)/elapsed.Seconds())
	}
	fmt.Fprintf(w, "deliveries      %d local handler calls\n", delivered.Load())
	fmt.Fprintf(w, "link crossings  %d events forwarded to peers\n", st.Forwarded)
	fmt.Fprintf(w, "sub flood msgs  %d\n", st.SubscriptionMsgs)
	if cfg.Cover {
		fmt.Fprintf(w, "cover pruned    %d forwards\n", st.CoverSuppressed)
	}
	fmt.Fprintf(w, "flow control    %d events shed (%d bytes spilled), %d bytes queued, %d peers evicted\n",
		st.Shed, st.SpilledBytes, st.QueuedBytes, st.Evicted)
	if st.HopDropped != 0 || st.InstallErrors != 0 {
		fmt.Fprintf(w, "ANOMALIES       hop-dropped %d, install errors %d\n", st.HopDropped, st.InstallErrors)
	}
	return nil
}

func connectRetry(b *netoverlay.Broker, addr string) error {
	deadline := time.Now().Add(dialRetry)
	for {
		err := b.Connect(addr)
		if err == nil {
			return nil
		}
		// Retrying is for peers still starting up; a handshake rejection
		// (version mismatch, duplicate link, self-link) is deterministic.
		if errors.Is(err, netoverlay.ErrHandshake) || time.Now().After(deadline) {
			return fmt.Errorf("link to %s: %w", addr, err)
		}
		time.Sleep(dialInterval)
	}
}

// simConfig parameterises one in-process simulation run.
type simConfig struct {
	Nodes    int
	Topology string
	Fanout   int
	Subs     int
	Events   int
	Seed     int64
	Cover    bool

	LinkHighWater int
	MetricsAddr   string
}

func run(sc simConfig) error {
	var (
		nw  *overlay.Network
		err error
	)
	cfg := overlay.Config{
		Cover:         sc.Cover,
		LinkHighWater: sc.LinkHighWater,
	}
	if sc.MetricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		ln, err := obs.Serve(sc.MetricsAddr, cfg.Metrics)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer ln.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}
	switch sc.Topology {
	case "line":
		nw, err = overlay.NewLine(sc.Nodes, cfg)
	case "star":
		nw, err = overlay.NewStar(sc.Nodes, cfg)
	case "tree":
		nw, err = overlay.NewTree(sc.Nodes, sc.Fanout, cfg)
	default:
		return fmt.Errorf("unknown topology %q", sc.Topology)
	}
	if err != nil {
		return err
	}
	defer nw.Close()

	rng := rand.New(rand.NewSource(sc.Seed))
	var delivered atomic.Int64

	for i := 0; i < sc.Subs; i++ {
		at := overlay.NodeID(rng.Intn(sc.Nodes))
		if _, err := nw.Subscribe(at, workload.StockSub(rng), func(event.Event) { delivered.Add(1) }); err != nil {
			return err
		}
	}
	nw.Flush()

	start := time.Now()
	for i := 0; i < sc.Events; i++ {
		if err := nw.Publish(overlay.NodeID(rng.Intn(sc.Nodes)), workload.StockEvent(rng, i)); err != nil {
			return err
		}
	}
	nw.Flush()
	elapsed := time.Since(start)

	st := nw.Stats()
	fmt.Printf("topology        %s (%d brokers)\n", sc.Topology, sc.Nodes)
	fmt.Printf("subscriptions   %d\n", sc.Subs)
	fmt.Printf("events          %d in %v (%.0f events/s)\n",
		sc.Events, elapsed.Round(time.Millisecond), float64(sc.Events)/elapsed.Seconds())
	fmt.Printf("deliveries      %d (%.2f per event)\n",
		delivered.Load(), float64(delivered.Load())/float64(sc.Events))
	fmt.Printf("link crossings  %d (%.2f per event; filtering prunes the rest)\n",
		st.Forwarded, float64(st.Forwarded)/float64(sc.Events))
	fmt.Printf("sub flood msgs  %d\n", st.SubscriptionMsgs)
	if sc.Cover {
		fmt.Printf("cover pruned    %d forwards\n", st.CoverSuppressed)
	}
	if st.Shed != 0 {
		fmt.Printf("flow control    %d events shed (%d bytes spilled)\n", st.Shed, st.SpilledBytes)
	}
	return nil
}
