// Package netoverlay federates brokers over real TCP: each process runs one
// Broker — a full non-canonical matching engine plus the internal/router
// routing core — and links to neighbouring brokers with the internal/wire
// framing (MsgHello handshake, MsgSubForward / MsgUnsubForward /
// MsgEventForward). N processes whose links form a tree become a
// covering-routed broker network: subscriptions flood (pruned by covering
// when Options.Cover is set), events follow reverse paths and reach every
// matching subscriber in the federation exactly once.
//
// The forwarding discipline is the same one that makes internal/overlay
// deadlock-free: the broker goroutine never blocks toward a peer. Outbound
// messages go to a per-peer flow-controlled spill queue drained by a writer
// goroutine; inbound frames are read by a per-peer reader that feeds the
// broker inbox. A congested or stalled peer therefore backs traffic up in
// its own direction only — it can never wedge this broker's loop, and it
// cannot OOM it either: the spill queue is byte-bounded by credit
// (Options.LinkHighWater). Past the high watermark the link sheds event
// traffic (counted in Stats.Shed) while subscription control traffic is
// never shed, a peer congested past Options.CongestionDeadline is evicted
// with full route retraction (Stats.Evicted), and a half-open peer that
// goes silent past Options.ReadIdleTimeout is detached the same way
// (periodic MsgPing probes keep healthy links audibly alive).
//
// Topology: brokers are identified by operator-assigned node IDs. The
// handshake rejects self-links, duplicate links to the same peer and
// protocol-version mismatches — the local anomalies every cycle must
// contain at least one of on a two-node loop — and a duplicate subscription
// flood (impossible on a tree) is surfaced through Options.OnError as a
// cycle warning. Keeping the global link set acyclic remains the
// deployment's contract, exactly as in SIENA-style broker networks.
package netoverlay

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
	"noncanon/internal/router"
	"noncanon/internal/sublang"
	"noncanon/internal/subtree"
)

// Handler consumes events delivered to a local subscriber. Handlers run on
// the broker goroutine and must not block.
type Handler = router.Handler

// Errors returned by the broker API.
var (
	ErrClosed     = errors.New("netoverlay: broker closed")
	ErrUnknownSub = errors.New("netoverlay: unknown subscription")
	ErrHandshake  = errors.New("netoverlay: handshake failed")
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netoverlay: server closed")

// DefaultInboxSize is the broker inbox capacity. As in internal/overlay,
// forwarding progress never depends on it.
const DefaultInboxSize = 1024

// traceRingSize is the capacity of the ring of recent hop records kept
// for sampled traced events (see Options.TraceSampleEvery and Traces).
const traceRingSize = 256

// writeTimeout bounds one frame write toward a peer; a peer stalled longer
// is detached (its learned routes are retracted network-wide).
const writeTimeout = 10 * time.Second

// handshakeTimeout bounds the hello exchange on a fresh connection.
const handshakeTimeout = 5 * time.Second

// Flow-control defaults; see the corresponding Options fields. Negative
// option values disable the mechanism, zero means the default.
const (
	// DefaultLinkHighWater is the per-peer spill-queue congestion
	// threshold in accounted bytes.
	DefaultLinkHighWater = 8 << 20
	// DefaultCongestionDeadline is how long a peer may stay congested
	// before it is evicted with route retraction.
	DefaultCongestionDeadline = 30 * time.Second
	// DefaultPingInterval is the liveness-probe cadence on peer links.
	DefaultPingInterval = 15 * time.Second
	// DefaultReadIdleTimeout is how long a peer link may stay silent
	// before it is treated as dead. It must comfortably exceed the ping
	// interval: a healthy peer's probes keep the link audibly alive.
	DefaultReadIdleTimeout = 60 * time.Second
)

// Options configures a federated broker.
type Options struct {
	// NodeID identifies this broker in the federation. Operators must
	// assign distinct IDs: subscription IDs embed the home broker's, and
	// the handshake can only veto the collisions it can see (self-links,
	// two links to the same peer).
	NodeID uint32
	// Cover enables covering-pruned subscription forwarding.
	Cover bool
	// Metrics is the registry this broker's instruments register in; nil
	// means a private registry (same atomic cost, reachable via Metrics()).
	// Give each broker its own registry: per-broker function instruments
	// (queue gauges, shed totals) are replaced, not summed, on collision.
	Metrics *obs.Registry
	// TraceSampleEvery turns on event tracing: every Nth local Publish is
	// stamped with a trace ID and origin timestamp that travel with the
	// event across every federation hop. Each receiving broker records the
	// hop into its netoverlay_hop_latency_seconds histogram and its trace
	// ring (see Traces). Zero disables tracing; untraced frames are
	// byte-identical to the pre-trace wire format, so traced and untraced
	// brokers interoperate freely.
	TraceSampleEvery int
	// LinkHighWater is the per-peer spill-queue congestion threshold in
	// accounted bytes (default DefaultLinkHighWater). A peer whose queue
	// reaches it stops receiving event traffic — events are shed and
	// counted (Stats.Shed) — until the queue drains below half of it.
	// Subscription control traffic is never shed.
	LinkHighWater int
	// CongestionDeadline is how long a peer may stay continuously
	// congested before the broker evicts it, retracting every route
	// learned through it (default DefaultCongestionDeadline; negative
	// disables eviction).
	CongestionDeadline time.Duration
	// PingInterval is the cadence of MsgPing liveness probes on peer
	// links (default DefaultPingInterval; negative disables probing).
	PingInterval time.Duration
	// ReadIdleTimeout detaches a peer whose link stays silent this long —
	// the half-open TCP case where no FIN ever arrives (default
	// DefaultReadIdleTimeout; negative disables the idle check). Healthy
	// peers' pings keep the link active, so it should comfortably exceed
	// the peers' PingInterval.
	ReadIdleTimeout time.Duration
	// Logf receives connection-level diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// OnError receives routing anomalies (unparseable forwarded filters,
	// install failures, duplicate floods that suggest a topology cycle).
	// Called on broker goroutines; must not block. Anomalies are also
	// counted in Stats.InstallErrors.
	OnError func(err error)
}

// SubRef names a local subscription.
type SubRef struct {
	id uint64
}

// Stats aggregates broker activity.
type Stats struct {
	// Published counts local Publish calls.
	Published uint64
	// Forwarded counts event copies sent to peers.
	Forwarded uint64
	// Delivered counts local handler invocations.
	Delivered uint64
	// SubscriptionMsgs counts subscription floods and retractions sent.
	SubscriptionMsgs uint64
	// CoverSuppressed counts forwards pruned by covering (Options.Cover).
	CoverSuppressed uint64
	// HopDropped counts events discarded at the hop limit; zero on trees.
	HopDropped uint64
	// InstallErrors counts routing anomalies (see Options.OnError).
	InstallErrors uint64
	// Shed counts events dropped at congested peer spill queues
	// (Options.LinkHighWater).
	Shed uint64
	// SpilledBytes is the cumulative accounted size of messages that went
	// through peer spill queues.
	SpilledBytes uint64
	// QueuedBytes is the accounted size currently sitting in peer spill
	// queues — bounded by LinkHighWater per link (plus control traffic).
	QueuedBytes uint64
	// Evicted counts peers detached for staying congested past
	// Options.CongestionDeadline.
	Evicted uint64
	// Peers is the live peer-link count.
	Peers int
}

// Broker is one federated broker process.
type Broker struct {
	opts Options

	quit   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	inbox  chan inMsg

	// rt and links are owned by the run goroutine (control thunks included).
	rt    *router.Router
	eng   *core.Engine
	links []*peer // index = router link; nil once detached

	mu      sync.Mutex
	ln      net.Listener
	peers   map[uint32]*peer // by peer node ID
	pending map[net.Conn]struct{}
	// Cumulative queue accounting folded in when peers detach, so Stats
	// keeps counting what evicted links shed.
	detachedShed    uint64
	detachedSpilled uint64

	nextSub   atomic.Uint64
	localSubs sync.Map // sub id → struct{}, for Unsubscribe validation
	activity  atomic.Uint64
	traceSeq  atomic.Uint64

	// Observability: every counter below lives in reg (Options.Metrics or
	// a private registry), so Stats and the exposition endpoint read the
	// same instruments the hot path increments.
	reg           *obs.Registry
	ring          *obs.TraceRing
	nodeName      string // NodeID in decimal, precomputed for trace records
	published     *obs.Counter
	installErrors *obs.Counter
	evicted       *obs.Counter
	hopLatency    *obs.Histogram
}

// inMsg is one broker-inbox entry: either a routing message tagged with the
// link it arrived on (-1 = local API, which also carries the handler), or a
// control thunk to run on the broker goroutine.
type inMsg struct {
	m    router.Msg
	from int
	h    Handler
	ctl  func()
}

// NewBroker starts a federated broker (no links yet; see Serve/Connect).
func NewBroker(opts Options) *Broker {
	if opts.LinkHighWater <= 0 {
		opts.LinkHighWater = DefaultLinkHighWater
	}
	if opts.CongestionDeadline == 0 {
		opts.CongestionDeadline = DefaultCongestionDeadline
	}
	if opts.PingInterval == 0 {
		opts.PingInterval = DefaultPingInterval
	}
	if opts.ReadIdleTimeout == 0 {
		opts.ReadIdleTimeout = DefaultReadIdleTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	b := &Broker{
		opts:    opts,
		quit:    make(chan struct{}),
		inbox:   make(chan inMsg, DefaultInboxSize),
		peers:   make(map[uint32]*peer),
		pending: make(map[net.Conn]struct{}),
	}
	b.reg = opts.Metrics
	if b.reg == nil {
		b.reg = obs.NewRegistry()
	}
	b.ring = obs.NewTraceRing(traceRingSize)
	b.nodeName = strconv.FormatUint(uint64(opts.NodeID), 10)
	// Causes register before effects: Snapshot reads instruments in
	// reverse registration order, so with published registered before the
	// router's forwarded/delivered counters a mid-storm snapshot can never
	// show more forwards than publishes.
	b.published = b.reg.Counter("netoverlay_published_total")
	b.installErrors = b.reg.Counter("netoverlay_install_errors_total")
	b.eng = core.New(predicate.NewRegistry(), index.New(), core.Options{})
	b.rt = router.New(router.Config{
		Cover:     opts.Cover,
		Engine:    b.eng,
		Transport: (*brokerTransport)(b),
		Metrics:   b.reg,
	})
	// The peer gauge registers before the eviction counter, so Snapshot
	// reads it after. Eviction is counted only once the peer has left the
	// table, so a Stats showing an eviction never still counts that peer.
	b.reg.GaugeFunc("netoverlay_peers", func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return int64(len(b.peers))
	})
	b.evicted = b.reg.Counter("netoverlay_evicted_total")
	b.hopLatency = b.reg.Histogram("netoverlay_hop_latency_seconds")
	// Queue aggregates are function instruments over the live peer set
	// plus the totals folded in when peers detached. They take b.mu, which
	// is safe: Snapshot runs callbacks with no registry lock held, and
	// Stats does not hold b.mu while snapshotting.
	b.reg.CounterFunc("netoverlay_shed_total", func() uint64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		s := b.detachedShed
		for _, p := range b.peers {
			s += p.out.Stats().Shed
		}
		return s
	})
	b.reg.CounterFunc("netoverlay_spilled_bytes_total", func() uint64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		s := b.detachedSpilled
		for _, p := range b.peers {
			s += p.out.Stats().SpilledBytes
		}
		return s
	})
	b.reg.GaugeFunc("netoverlay_queue_bytes", func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		var s int64
		for _, p := range b.peers {
			s += int64(p.out.Stats().Bytes)
		}
		return s
	})
	b.wg.Add(1)
	go b.run()
	if opts.CongestionDeadline > 0 {
		b.wg.Add(1)
		go b.monitor()
	}
	return b
}

// monitor is the slow-peer eviction goroutine: it periodically scans peer
// spill queues and detaches any peer congested past the deadline. It runs
// off the broker goroutine on purpose — detach enqueues a control thunk
// into the broker inbox, which only the broker goroutine drains, so
// triggering eviction from there would self-deadlock.
func (b *Broker) monitor() {
	defer b.wg.Done()
	deadline := b.opts.CongestionDeadline
	tick := deadline / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			var victims []*peer
			b.mu.Lock()
			for _, p := range b.peers {
				if p.out.CongestedFor() > deadline {
					victims = append(victims, p)
				}
			}
			b.mu.Unlock()
			// Detach outside b.mu: detach re-takes it and blocks on the
			// broker inbox for the retraction thunk.
			for _, p := range victims {
				p.detach(fmt.Errorf("netoverlay: peer %d congested past %v, evicting (queue %+v)",
					p.nodeID, deadline, p.out.Stats()))
				// Counted after detach so an observed eviction implies the
				// peer is already out of the peer table. The per-peer
				// counter survives the detach (it is history, not a view),
				// and continues counting if the same peer relinks.
				b.evicted.Inc()
				b.reg.Counter(peerInstrument("netoverlay_peer_evicted_total", p.nodeID)).Inc()
			}
		case <-b.quit:
			return
		}
	}
}

// NodeID returns this broker's federation identity.
func (b *Broker) NodeID() uint32 { return b.opts.NodeID }

// Serve accepts peer links on ln until Close. It always returns a non-nil
// error; after Close the error is ErrServerClosed.
func (b *Broker) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	b.ln = ln
	b.mu.Unlock()
	return b.acceptLoop(ln)
}

// Listen binds addr and accepts peer links in the background; unlike Serve
// it returns once the listener is live, with its (possibly port-resolved)
// address. Accept-loop failures go to Options.Logf.
func (b *Broker) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netoverlay: listen %s: %w", addr, err)
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	b.ln = ln
	b.wg.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		if err := b.acceptLoop(ln); !errors.Is(err, ErrServerClosed) {
			b.opts.Logf("netoverlay: node %d: accept loop: %v", b.opts.NodeID, err)
		}
	}()
	return ln.Addr(), nil
}

func (b *Broker) acceptLoop(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if b.closed.Load() {
				return ErrServerClosed
			}
			return fmt.Errorf("netoverlay: accept: %w", err)
		}
		b.mu.Lock()
		if b.closed.Load() {
			b.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		b.pending[nc] = struct{}{}
		b.wg.Add(1)
		b.mu.Unlock()
		go func() {
			defer b.wg.Done()
			b.acceptPeer(nc)
		}()
	}
}

// ListenAndServe listens on addr and serves peer links.
func (b *Broker) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netoverlay: listen %s: %w", addr, err)
	}
	return b.Serve(ln)
}

// Addr returns the serving listener address, or nil before Serve.
func (b *Broker) Addr() net.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln == nil {
		return nil
	}
	return b.ln.Addr()
}

// Connect dials a peer broker and adds the link, blocking until the link is
// live (existing local routes have been flooded over it).
func (b *Broker) Connect(addr string) error {
	if b.closed.Load() {
		return ErrClosed
	}
	nc, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return fmt.Errorf("netoverlay: dial %s: %w", addr, err)
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	b.pending[nc] = struct{}{}
	b.mu.Unlock()
	peerID, err := b.handshake(nc, true)
	if err != nil {
		b.unpend(nc)
		nc.Close()
		return err
	}
	if err := b.attach(nc, peerID); err != nil {
		return err
	}
	return nil
}

// acceptPeer performs the server side of the handshake and attaches.
func (b *Broker) acceptPeer(nc net.Conn) {
	peerID, err := b.handshake(nc, false)
	if err != nil {
		b.opts.Logf("netoverlay: node %d: reject peer %s: %v", b.opts.NodeID, nc.RemoteAddr(), err)
		b.unpend(nc)
		nc.Close()
		return
	}
	if err := b.attach(nc, peerID); err != nil {
		b.opts.Logf("netoverlay: node %d: attach peer %d: %v", b.opts.NodeID, peerID, err)
	}
}

// Subscribe registers a local subscription. Its filter floods the
// federation asynchronously; brokers further away see it after one network
// round-trip per hop.
func (b *Broker) Subscribe(expr boolexpr.Expr, h Handler) (SubRef, error) {
	if b.closed.Load() {
		return SubRef{}, ErrClosed
	}
	if expr == nil {
		return SubRef{}, fmt.Errorf("netoverlay: nil subscription expression")
	}
	if h == nil {
		return SubRef{}, fmt.Errorf("netoverlay: nil handler")
	}
	// Validate compilability up front (throwaway interner) so installation
	// cannot fail asynchronously, and require the filter to survive the
	// text round trip it takes across every link.
	var n predicate.ID
	if _, err := subtree.Compile(expr, func(predicate.P) predicate.ID { n++; return n }, subtree.Options{}); err != nil {
		return SubRef{}, fmt.Errorf("netoverlay: invalid subscription: %w", err)
	}
	back, err := sublang.Parse(expr.String())
	if err != nil {
		return SubRef{}, fmt.Errorf("netoverlay: filter does not survive the wire text form: %w", err)
	}
	if !boolexpr.Equal(expr, back) {
		return SubRef{}, fmt.Errorf("netoverlay: filter changes meaning across the wire text form: %s", expr)
	}
	id := uint64(b.opts.NodeID)<<32 | (b.nextSub.Add(1) & 0xffffffff)
	b.localSubs.Store(id, struct{}{})
	if !b.enqueue(inMsg{m: router.Msg{Kind: router.Sub, SubID: id, Expr: expr}, from: -1, h: h}) {
		b.localSubs.Delete(id)
		return SubRef{}, ErrClosed
	}
	return SubRef{id: id}, nil
}

// Unsubscribe retracts a subscription created by this broker's Subscribe.
func (b *Broker) Unsubscribe(ref SubRef) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if _, ok := b.localSubs.LoadAndDelete(ref.id); !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSub, ref.id)
	}
	if !b.enqueue(inMsg{m: router.Msg{Kind: router.Unsub, SubID: ref.id}, from: -1}) {
		return ErrClosed
	}
	return nil
}

// Publish injects an event at this broker. With Options.TraceSampleEvery
// set, every Nth event is stamped with a trace that rides the wire across
// every hop it takes through the federation.
func (b *Broker) Publish(ev event.Event) error {
	if b.closed.Load() {
		return ErrClosed
	}
	b.published.Inc()
	m := router.Msg{Kind: router.Event, Ev: ev}
	if n := b.opts.TraceSampleEvery; n > 0 {
		if seq := b.traceSeq.Add(1); seq%uint64(n) == 0 {
			id := uint64(b.opts.NodeID)<<32 | (seq & 0xffffffff)
			if id == 0 { // zero means "untraced" on the wire; never emit it
				id = 1 << 63
			}
			m.Trace = router.Trace{ID: id, OriginNanos: time.Now().UnixNano()}
		}
	}
	if !b.enqueue(inMsg{m: m, from: -1}) {
		return ErrClosed
	}
	return nil
}

// Stats returns an activity snapshot. It is one coherent registry read:
// every field comes from the same obs.Registry.Snapshot, whose
// effects-before-causes read order keeps Forwarded ≤ Published and
// Delivered ≤ Published even while publishes are in flight.
func (b *Broker) Stats() Stats {
	var st Stats
	for _, s := range b.reg.Snapshot() {
		switch s.Name {
		case "netoverlay_published_total":
			st.Published = s.Value
		case "netoverlay_install_errors_total":
			st.InstallErrors = s.Value
		case "netoverlay_evicted_total":
			st.Evicted = s.Value
		case "netoverlay_shed_total":
			st.Shed = s.Value
		case "netoverlay_spilled_bytes_total":
			st.SpilledBytes = s.Value
		case "netoverlay_queue_bytes":
			st.QueuedBytes = uint64(s.GaugeValue)
		case "netoverlay_peers":
			st.Peers = int(s.GaugeValue)
		case "router_forwarded_total":
			st.Forwarded = s.Value
		case "router_delivered_total":
			st.Delivered = s.Value
		case "router_sub_msgs_total":
			st.SubscriptionMsgs = s.Value
		case "router_cover_suppressed_total":
			st.CoverSuppressed = s.Value
		case "router_hop_dropped_total":
			st.HopDropped = s.Value
		}
	}
	return st
}

// Metrics returns the registry this broker's instruments live in — the
// one from Options.Metrics, or the private default. Hand it to obs.Serve
// (or obs.Endpoint with Traces) to expose this broker operationally.
func (b *Broker) Metrics() *obs.Registry { return b.reg }

// Traces returns the ring of recent per-hop records for sampled traced
// events received by this broker (see Options.TraceSampleEvery).
func (b *Broker) Traces() *obs.TraceRing { return b.ring }

// Activity returns a monotone counter of broker work (messages processed,
// frames written). Settle uses it to detect quiescence.
func (b *Broker) Activity() uint64 { return b.activity.Load() }

// idle reports whether nothing is queued locally: the inbox is empty and
// every peer spill queue is drained.
func (b *Broker) idle() bool {
	if len(b.inbox) != 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.peers {
		if p.out.Len() != 0 {
			return false
		}
	}
	return true
}

// Settle blocks until the given brokers have been jointly quiet — no
// activity anywhere, nothing queued — for the idle window. It is the
// federation analogue of overlay.Flush for brokers sharing a process (tests
// and benchmarks); it returns early if every broker closes. The window must
// comfortably exceed the links' one-hop latency; loopback tests are fine
// with tens of milliseconds.
func Settle(idle time.Duration, brokers ...*Broker) {
	if idle <= 0 {
		idle = 50 * time.Millisecond
	}
	sum := func() uint64 {
		var s uint64
		for _, b := range brokers {
			s += b.Activity()
		}
		return s
	}
	allIdle := func() bool {
		for _, b := range brokers {
			if !b.closed.Load() && !b.idle() {
				return false
			}
		}
		return true
	}
	anyOpen := func() bool {
		for _, b := range brokers {
			if !b.closed.Load() {
				return true
			}
		}
		return false
	}
	last := sum()
	lastChange := time.Now()
	for anyOpen() {
		time.Sleep(idle / 8)
		if cur := sum(); cur != last {
			last, lastChange = cur, time.Now()
			continue
		}
		if allIdle() && time.Since(lastChange) >= idle {
			return
		}
	}
}

// Quiesce blocks until this broker alone has been quiet for the idle
// window. Other federation members may still be working; use Settle when
// all brokers share the process.
func (b *Broker) Quiesce(idle time.Duration) { Settle(idle, b) }

// Close stops the broker: the listener, every peer link and all goroutines.
func (b *Broker) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	close(b.quit)
	b.mu.Lock()
	ln := b.ln
	peers := make([]*peer, 0, len(b.peers))
	for _, p := range b.peers {
		peers = append(peers, p)
	}
	pending := make([]net.Conn, 0, len(b.pending))
	for nc := range b.pending {
		pending = append(pending, nc)
	}
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range pending {
		nc.Close()
	}
	for _, p := range peers {
		p.shutdown()
	}
	b.wg.Wait()
	return nil
}

// enqueue delivers one message to the broker inbox; false once closed.
// External callers (API, peer readers) may block on a full inbox — the
// broker goroutine itself never calls this, so the block always resolves.
func (b *Broker) enqueue(m inMsg) bool {
	select {
	case b.inbox <- m:
		return true
	case <-b.quit:
		return false
	}
}

// run is the broker goroutine: the single owner of the router state.
func (b *Broker) run() {
	defer b.wg.Done()
	for {
		select {
		case m := <-b.inbox:
			b.activity.Add(1)
			if m.ctl != nil {
				m.ctl()
				continue
			}
			if err := b.rt.Handle(m.m, m.h, m.from); err != nil {
				b.anomaly(err)
			}
		case <-b.quit:
			return
		}
	}
}

// anomaly surfaces a routing error as a counted stat plus the callback.
func (b *Broker) anomaly(err error) {
	b.installErrors.Inc()
	b.opts.Logf("netoverlay: node %d: %v", b.opts.NodeID, err)
	if b.opts.OnError != nil {
		b.opts.OnError(err)
	}
}

// brokerTransport adapts peer spill queues to the router's non-blocking
// Transport. Called only on the broker goroutine.
type brokerTransport Broker

func (t *brokerTransport) Send(link int, m router.Msg) {
	b := (*Broker)(t)
	if link >= len(b.links) {
		return
	}
	if p := b.links[link]; p != nil {
		router.EnqueueMsg(p.out, m)
	}
}

func (b *Broker) unpend(nc net.Conn) {
	b.mu.Lock()
	delete(b.pending, nc)
	b.mu.Unlock()
}
