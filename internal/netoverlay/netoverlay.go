// Package netoverlay federates brokers over real TCP: each process runs one
// Broker — an internal/broker matching spine plus the internal/router
// routing core — and links to neighbouring brokers with the internal/wire
// framing (MsgHello handshake, MsgSubForward / MsgUnsubForward /
// MsgEventForward). N processes whose links form a tree become a
// covering-routed broker network: subscriptions flood (pruned by covering
// when Options.Cover is set), events follow reverse paths and reach every
// matching subscriber in the federation exactly once.
//
// This is the peer-to-peer deployment the paper motivates ("in typical
// real world situations we will find peer-to-peer networks of less
// equipped machines, such as laptops and mobile devices to perform event
// filtering", §1). Network simulates it in one process: ordinary Brokers
// whose links are net.Pipe pairs running the same wire protocol.
//
// Forwarding is deadlock-free by construction: the broker goroutine never
// blocks toward a peer. Each peer is its router link's Sender: outbound
// messages go to the peer's flow-controlled spill queue, drained by its
// writer goroutine — the connection's one writer — and inbound frames are
// read by a per-peer reader that feeds the broker inbox. So the A↔B
// full-inbox cycle (each broker wedged sending into the other's full
// inbox) cannot form, however small the inbox. A congested or stalled peer
// backs traffic up in its own direction only, and it cannot OOM this
// broker either: the spill queue is byte-bounded by credit
// (Options.LinkHighWater). Past the high watermark the link sheds event
// traffic (counted in Stats.Shed) while control traffic is never shed.
// Each link's clock goroutine queues MsgPing keepalives, which keep a
// healthy link audibly alive, and evicts its own link once it has been
// congested past Options.CongestionDeadline, with full route retraction
// (Stats.Evicted). A half-open peer that goes silent past
// Options.ReadIdleTimeout is detached the same way.
//
// Peer I/O moves in bursts. The writer drains whatever is queued, up to
// 16 KiB of frames, and writes it with one deadline and one Write
// (netoverlay_peer_writes_total counts them); the frames are byte for byte
// those written one at a time. A link's outbound memory is therefore
// LinkHighWater of queued messages plus at most one burst held by the
// writer. The reader renews its idle deadline only before a read that can
// block, not once per buffered frame.
//
// Topology: brokers are identified by operator-assigned node IDs. The
// handshake rejects self-links, duplicate links to the same peer and
// protocol-version mismatches — the local anomalies every cycle must
// contain at least one of on a two-node loop — and a duplicate subscription
// flood (impossible on a tree) is logged (Options.Logf) and counted in
// Stats.InstallErrors as a cycle warning. Keeping the global link set
// acyclic remains the deployment's contract, exactly as in SIENA-style
// broker networks.
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
	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/obs"
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

// DefaultInboxSize is the broker inbox capacity. Forwarding progress never
// depends on it (see the package comment); it only bounds how far a
// broker's unprocessed backlog grows before its peers' readers wait.
const DefaultInboxSize = 1024

// traceRingSize is the capacity of the ring of recent hop records kept
// for sampled traced events (see Options.TraceSampleEvery and Traces).
const traceRingSize = 256

// writeTimeout bounds one burst write toward a peer; a peer stalled longer
// is detached (its learned routes are retracted network-wide).
const writeTimeout = 10 * time.Second

// burstBytes caps one peer write: the writer stops draining its queue once
// a burst holds this many bytes of frames (one frame may overshoot it).
// maxSpare is the largest burst buffer it keeps once its queue runs dry.
const (
	burstBytes = 16 << 10
	maxSpare   = 4 << 10
)

// handshakeTimeout bounds the hello exchange on a fresh connection.
const handshakeTimeout = 5 * time.Second

// Flow-control defaults; see the corresponding Options fields. Zero means
// the default. A negative CongestionDeadline, PingInterval or
// ReadIdleTimeout disables its mechanism; LinkHighWater ≤ 0 means the
// default, and shedding cannot be disabled.
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
	// Logf receives connection-level diagnostics and routing anomalies;
	// nil silences them.
	Logf func(format string, args ...any)
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
	// InstallErrors counts routing anomalies: unparseable forwarded
	// filters, install failures, duplicate floods, misdirected retractions.
	// Each is also logged (Options.Logf).
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

	// rt is owned by the run goroutine (control thunks included).
	rt *router.Router
	bk *broker.Broker // matches for rt; closed once run has returned

	mu      sync.Mutex
	ln      net.Listener
	peers   map[uint32]*peer // by peer node ID
	pending map[net.Conn]struct{}
	// localSubs holds the IDs Subscribe handed out and Unsubscribe has not
	// taken back, for Unsubscribe validation.
	localSubs map[uint64]struct{}
	// Cumulative queue accounting folded in when peers detach, so Stats
	// keeps counting what evicted links shed.
	detachedShed    uint64
	detachedSpilled uint64

	nextSub  atomic.Uint64
	traceSeq atomic.Uint64

	enq, handled atomic.Uint64 // inbox counts for Flush (see quiescent)

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
	peerWrites    *obs.Counter // one per burst Write, all links
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

// NewBroker starts a federated broker (no links yet; see Listen/Connect).
func NewBroker(opts Options) *Broker { return newBroker(opts, DefaultInboxSize) }

// newBroker is NewBroker with the inbox capacity as a parameter.
func newBroker(opts Options, inboxSize int) *Broker {
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
		opts:      opts,
		quit:      make(chan struct{}),
		inbox:     make(chan inMsg, inboxSize),
		peers:     make(map[uint32]*peer),
		pending:   make(map[net.Conn]struct{}),
		localSubs: make(map[uint64]struct{}),
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
	b.bk = broker.New(broker.Options{})
	b.rt = router.New(router.Config{Cover: opts.Cover, Broker: b.bk, Metrics: b.reg})
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
	b.peerWrites = b.reg.Counter("netoverlay_peer_writes_total")
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
	return b
}

// NodeID returns this broker's federation identity.
func (b *Broker) NodeID() uint32 { return b.opts.NodeID }

// Listen binds addr and accepts peer links in the background, returning
// once the listener is live with its (possibly port-resolved) address.
// Accept failures go to Options.Logf.
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
	go b.acceptLoop(ln)
	return ln.Addr(), nil
}

func (b *Broker) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if !b.closed.Load() {
				b.opts.Logf("netoverlay: node %d: accept: %v", b.opts.NodeID, err)
			}
			return
		}
		b.wg.Add(1) // safe beside Close's Wait: this goroutine holds a count
		go func() {
			defer b.wg.Done()
			if err := b.link(nc, false); err != nil {
				b.opts.Logf("netoverlay: node %d: peer %s: %v", b.opts.NodeID, nc.RemoteAddr(), err)
			}
		}()
	}
}

// Addr returns the listener address, or nil before Listen.
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
	return b.link(nc, true)
}

// link runs the handshake over an established connection (the dialer's
// hello goes first) and attaches it as a peer link, blocking until the
// link is live. Close closes the connection if it is still handshaking.
func (b *Broker) link(nc net.Conn, dialer bool) error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	b.pending[nc] = struct{}{}
	b.mu.Unlock()
	peerID, err := b.handshake(nc, dialer)
	if err != nil {
		b.mu.Lock()
		delete(b.pending, nc)
		b.mu.Unlock()
		nc.Close()
		return err
	}
	return b.attach(nc, peerID)
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
	// Validate compilability up front so installation cannot fail
	// asynchronously, and require the filter to survive the text round
	// trip it takes across every link.
	if _, err := subtree.Prepare(expr, subtree.Options{}); err != nil {
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
	b.mu.Lock()
	b.localSubs[id] = struct{}{}
	b.mu.Unlock()
	if !b.enqueue(inMsg{m: router.Msg{Kind: router.Sub, SubID: id, Expr: expr}, from: -1, h: h}) {
		b.mu.Lock()
		delete(b.localSubs, id)
		b.mu.Unlock()
		return SubRef{}, ErrClosed
	}
	return SubRef{id: id}, nil
}

// Unsubscribe retracts a subscription created by this broker's Subscribe.
func (b *Broker) Unsubscribe(ref SubRef) error {
	if b.closed.Load() {
		return ErrClosed
	}
	b.mu.Lock()
	_, ok := b.localSubs[ref.id]
	delete(b.localSubs, ref.id)
	b.mu.Unlock()
	if !ok {
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

// Stats returns an activity snapshot: one registry read, every field from
// the same obs.Registry.Snapshot. It bounds nothing by this broker's
// Published: a relay forwards and delivers events it never published. The
// sums of Network.Stats, which reads every node's effects before any
// node's Published, never count a forward or delivery without its publish:
// with one next hop and one subscriber per event, Forwarded ≤ Published
// and Delivered ≤ Published hold even mid-storm.
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

// Flush blocks until the given brokers are quiet: every routing message
// they queued — API calls, the forwards those cascade into, frames on the
// links among them — has been handled. It is exact over TCP and net.Pipe
// alike: each broker counts messages into and out of its inbox, each
// peer's spill queue and each connection, and Flush polls until one
// snapshot of those counts balances (see quiescent). A link to a broker
// outside the set is flushed once its queue is written; a link to a closed
// broker in the set must first be detached and its routes retracted. Node
// IDs in the set must be distinct. Flush returns once all are closed.
func Flush(brokers ...*Broker) {
	for d := 10 * time.Microsecond; !quiescent(brokers); d = min(2*d, time.Millisecond) {
		time.Sleep(d)
	}
}

// wave is one side of a broker's counts: its inbox count and, by peer node
// ID, each live link's spill-queue and connection counts.
type wave struct {
	inbox uint64
	links map[uint32]linkCount
}

type linkCount struct {
	p           *peer
	queue, conn uint64
}

// read takes the receive (handled, drained, read) or send (enq, pushed,
// written) side of b's counts; nil once b is closed and its queues dropped.
func (b *Broker) read(recv bool) *wave {
	if b.closed.Load() {
		return nil
	}
	w := &wave{inbox: b.enq.Load(), links: make(map[uint32]linkCount)}
	if recv {
		w.inbox = b.handled.Load()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, p := range b.peers {
		if recv {
			w.links[id] = linkCount{p, p.drained.Load(), p.read.Load()}
		} else {
			w.links[id] = linkCount{p, p.pushed.Load(), p.written.Load()}
		}
	}
	return w
}

// quiescent reports whether one snapshot of the brokers' counts balances
// (counter-based termination detection, after Mattern 1987). All receive
// counts are read first, then all send counts. Counts only grow, a send is
// counted before its message can be received, and a message's own sends
// before its receive. So if every channel's counts are equal, then between
// the two waves nothing was in flight and no broker held a message, and
// nothing can be sent any more.
func quiescent(brokers []*Broker) bool {
	for _, b := range brokers { // a busy inbox fails fast, before any wave
		if b.handled.Load() != b.enq.Load() && !b.closed.Load() {
			return false
		}
	}
	recv := make([]*wave, len(brokers))
	for i, b := range brokers {
		recv[i] = b.read(true)
	}
	send := make([]*wave, len(brokers))
	byID := make(map[uint32]int, len(brokers))
	for i, b := range brokers {
		send[i] = b.read(false)
		byID[b.opts.NodeID] = i
	}
	for i, b := range brokers {
		r, s := recv[i], send[i]
		if r == nil || s == nil {
			continue
		}
		if r.inbox != s.inbox || len(r.links) != len(s.links) {
			return false
		}
		for id, out := range s.links {
			if in := r.links[id]; in.p != out.p || in.queue != out.queue {
				return false
			}
			j, inSet := byID[id]
			if !inSet {
				continue // flushed once its queue is written
			}
			if recv[j] == nil || send[j] == nil {
				return false // closed far end: detach and retract first
			}
			if far, ok := recv[j].links[b.opts.NodeID]; !ok || far.conn != out.conn {
				return false
			}
		}
	}
	return true
}

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
		p.detach(nil) // retraction is skipped: the broker is closed
	}
	b.wg.Wait()
	return b.bk.Close()
}

// enqueue delivers one message to the broker inbox; false once closed.
// External callers (API, peer readers) may block on a full inbox — the
// broker goroutine itself never calls this, so the block always resolves.
//
// A send into an inbox with room is a one-channel send; only a full inbox
// pays for the select that also watches quit.
func (b *Broker) enqueue(m inMsg) bool {
	b.enq.Add(1)
	select {
	case b.inbox <- m:
		return true
	default:
	}
	select {
	case b.inbox <- m:
		return true
	case <-b.quit:
		return false
	}
}

// run is the broker goroutine: the single owner of the router state. It
// takes a waiting message with a one-channel receive and selects on quit
// only once the inbox is empty.
func (b *Broker) run() {
	defer b.wg.Done()
	for {
		var m inMsg
		select {
		case m = <-b.inbox:
		default:
			select {
			case m = <-b.inbox:
			case <-b.quit:
				return
			}
		}
		if m.ctl != nil {
			m.ctl()
		} else if err := b.rt.Handle(m.m, m.h, m.from); err != nil {
			b.anomaly(err)
		}
		b.handled.Add(1)
	}
}

// anomaly surfaces a routing error as a counted stat and a log line.
func (b *Broker) anomaly(err error) {
	b.installErrors.Inc()
	b.opts.Logf("netoverlay: node %d: %v", b.opts.NodeID, err)
}
