// Package overlay simulates a distributed broker network: one goroutine per
// broker, channel links, subscription flooding and reverse-path event
// routing — the peer-to-peer deployment the paper motivates ("in typical
// real world situations we will find peer-to-peer networks of less equipped
// machines, such as laptops and mobile devices to perform event filtering",
// §1). The routing state machine itself — next-hop tables, covering-pruned
// flooding, re-flood-before-retract ordering — lives in internal/router;
// this package supplies the in-process transport, internal/netoverlay the
// TCP one.
//
// Forwarding is deadlock-free by construction: a broker goroutine never
// blocks on a neighbour's inbox. Outbound messages go through a per-link
// flow-controlled spill queue drained by a writer goroutine, so the classic
// A↔B full-inbox cycle — each broker wedged mid-send into the other's full
// inbox, neither draining its own — cannot form, no matter how small
// Config.InboxSize is or how violent a registration storm gets. The queues
// are byte-bounded (Config.LinkHighWater): a link congested past its credit
// sheds event traffic (counted in Stats.Shed) rather than growing without
// limit, while subscription control traffic is never shed.
//
// Every broker runs the full non-canonical engine, so overlay scalability
// inherits the filtering scalability the paper argues for.
package overlay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
	"noncanon/internal/router"
	"noncanon/internal/subtree"
)

// NodeID identifies a broker in the overlay.
type NodeID int

// Handler consumes events delivered to a local subscriber. Handlers run on
// the owning broker's goroutine and must not block.
type Handler = router.Handler

// Errors returned by the network API.
var (
	ErrClosed      = errors.New("overlay: network closed")
	ErrUnknownNode = errors.New("overlay: unknown node")
	ErrUnknownSub  = errors.New("overlay: unknown subscription")
	ErrNotATree    = errors.New("overlay: topology must be a connected acyclic graph")
)

// DefaultInboxSize is the per-broker message queue capacity. Forwarding
// progress does not depend on it (see the package comment); it only bounds
// how far a broker's unprocessed backlog can grow before the spill queues
// feeding it absorb the rest.
const DefaultInboxSize = 1024

// DefaultLinkHighWater is the default per-link spill-queue congestion
// threshold in accounted bytes. The simulation default is generous — the
// point of the bound is surviving a pathological consumer, not throttling
// an in-process benchmark.
const DefaultLinkHighWater = 64 << 20

// MaxHops bounds event forwarding as a safety net; tree routing never
// reaches it. Events dropped here are counted in Stats.HopDropped.
const MaxHops = router.MaxHops

// Config tunes the simulation.
type Config struct {
	// InboxSize is the per-broker inbox capacity (default DefaultInboxSize).
	InboxSize int
	// Cover enables covering-based subscription forwarding: a subscription
	// is not flooded past a link that already carries a covering one, and
	// unsubscribing a coverer re-floods the filters it was shadowing.
	// Event routing is unaffected; delivery stays exactly-once.
	Cover bool
	// LinkHighWater is the per-link spill-queue congestion threshold in
	// accounted bytes (default DefaultLinkHighWater). A congested link
	// sheds event traffic, counted in Stats.Shed, until it drains below
	// half of it; subscription control traffic is never shed.
	LinkHighWater int
	// OnError, when non-nil, receives routing anomalies (a subscription a
	// broker failed to install, a duplicate flood suggesting a cycle) that
	// a federated deployment must observe rather than panic over. Called on
	// a broker goroutine; must not block. The anomalies are also counted in
	// Stats.InstallErrors.
	OnError func(at NodeID, err error)
	// Metrics, when set, is the obs registry the network's instruments live
	// in. Every node's router shares the registry (and therefore the
	// instruments), so network totals are one snapshot read; per-link
	// spill-queue gauges are registered too. Nil keeps a private registry —
	// Stats works either way. Give each Network its own registry: two
	// networks on one registry would merge their series.
	Metrics *obs.Registry
}

// SubRef names a subscription in the overlay.
type SubRef struct {
	id uint64
}

// Stats aggregates network activity.
type Stats struct {
	// Published counts Publish calls.
	Published uint64
	// Forwarded counts event copies sent over links.
	Forwarded uint64
	// Delivered counts local handler invocations.
	Delivered uint64
	// SubscriptionMsgs counts subscription-propagation link messages.
	SubscriptionMsgs uint64
	// CoverSuppressed counts subscription forwards pruned because the link
	// already carried a covering subscription (Config.Cover only).
	CoverSuppressed uint64
	// HopDropped counts events discarded at the MaxHops safety net; on a
	// tree topology it stays zero.
	HopDropped uint64
	// InstallErrors counts subscriptions a broker failed to install
	// mid-flood (see Config.OnError). Zero in correct deployments:
	// subscriptions are validated before flooding.
	InstallErrors uint64
	// Shed counts events dropped at congested spill queues
	// (Config.LinkHighWater); zero unless a link ran out of credit.
	Shed uint64
	// SpilledBytes is the cumulative accounted size of messages that went
	// through the spill queues.
	SpilledBytes uint64
}

// Network is a simulated broker overlay.
type Network struct {
	cfg   Config
	nodes []*node

	nextSub atomic.Uint64
	closed  atomic.Bool
	quit    chan struct{}
	wg      sync.WaitGroup

	// inflight counts messages queued anywhere in the network (inboxes and
	// spill queues). Flush waits on flushed until it reaches zero; Close
	// wakes waiters regardless.
	mu       sync.Mutex
	flushed  *sync.Cond
	inflight int64

	subOrigin sync.Map // sub id → NodeID, for Unsubscribe validation

	reg           *obs.Registry
	published     *obs.Counter
	installErrors *obs.Counter
}

type node struct {
	id    NodeID
	net   *Network
	inbox chan message
	eng   *core.Engine
	rt    *router.Router

	// neighbors[i] is a directly linked broker; revIdx[i] is this node's
	// position in that neighbor's neighbor list (so messages can tell the
	// receiver which of its links they arrived on).
	neighbors []*node
	revIdx    []int

	// out[i] is the spill queue toward neighbors[i], drained by one writer
	// goroutine per link. The broker goroutine only ever pushes here —
	// never into a neighbour's inbox — so it cannot be wedged by a
	// congested peer.
	out []*router.Queue[router.Msg]
}

// message is one inbox entry: a routing message plus the receiving link
// (-1 when injected through the API, which also carries the handler).
type message struct {
	m       router.Msg
	from    int
	handler Handler
}

// New builds a network of n brokers connected by the given undirected
// edges. The topology must be a connected tree (n-1 edges, no cycles).
func New(n int, edges [][2]NodeID, cfg Config) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("overlay: need at least one node, got %d", n)
	}
	if err := validateTree(n, edges); err != nil {
		return nil, err
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = DefaultInboxSize
	}
	if cfg.LinkHighWater <= 0 {
		cfg.LinkHighWater = DefaultLinkHighWater
	}
	nw := &Network{cfg: cfg, quit: make(chan struct{})}
	nw.reg = cfg.Metrics
	if nw.reg == nil {
		nw.reg = obs.NewRegistry()
	}
	// Published is the cause of everything the routers count; registering
	// it before any router exists means a registry snapshot (which reads
	// newest-registered first) reads every effect before it — the ordering
	// that keeps Published ≥ per-event forwards coherent mid-churn.
	nw.published = nw.reg.Counter("overlay_published_total")
	nw.installErrors = nw.reg.Counter("overlay_install_errors_total")
	nw.flushed = sync.NewCond(&nw.mu)
	nw.nodes = make([]*node, n)
	for i := range nw.nodes {
		reg := predicate.NewRegistry()
		idx := index.New()
		nw.nodes[i] = &node{
			id:    NodeID(i),
			net:   nw,
			inbox: make(chan message, cfg.InboxSize),
			eng:   core.New(reg, idx, core.Options{}),
		}
	}
	for _, e := range edges {
		a, b := nw.nodes[e[0]], nw.nodes[e[1]]
		a.neighbors = append(a.neighbors, b)
		b.neighbors = append(b.neighbors, a)
		a.revIdx = append(a.revIdx, len(b.neighbors)-1)
		b.revIdx = append(b.revIdx, len(a.neighbors)-1)
	}
	for _, nd := range nw.nodes {
		nd.rt = router.New(router.Config{
			Links:     len(nd.neighbors),
			Cover:     cfg.Cover,
			Engine:    nd.eng,
			Transport: (*nodeTransport)(nd),
			Metrics:   nw.reg,
		})
		nd.out = make([]*router.Queue[router.Msg], len(nd.neighbors))
		for i := range nd.out {
			nd.out[i] = router.NewFlowQueue(router.EstimateMsgBytes, cfg.LinkHighWater, 0)
		}
	}
	// Spill-queue aggregates and (for exported registries) per-link depth
	// gauges. Registered after the routers so a snapshot reads these
	// shed/spill effects before the published cause too.
	nw.reg.CounterFunc("overlay_shed_total", func() uint64 {
		var n uint64
		for _, nd := range nw.nodes {
			for _, q := range nd.out {
				n += q.Stats().Shed
			}
		}
		return n
	})
	nw.reg.CounterFunc("overlay_spilled_bytes_total", func() uint64 {
		var n uint64
		for _, nd := range nw.nodes {
			for _, q := range nd.out {
				n += q.Stats().SpilledBytes
			}
		}
		return n
	})
	if cfg.Metrics != nil {
		for _, nd := range nw.nodes {
			for i := range nd.out {
				q := nd.out[i]
				name := fmt.Sprintf("overlay_link_queue_bytes{node=%q,link=%q}",
					fmt.Sprint(int(nd.id)), fmt.Sprint(int(nd.neighbors[i].id)))
				nw.reg.GaugeFunc(name, func() int64 { return int64(q.Stats().Bytes) })
			}
		}
	}
	for _, nd := range nw.nodes {
		nw.wg.Add(1)
		go nd.run()
		for i := range nd.out {
			nw.wg.Add(1)
			go nd.drainLink(i)
		}
	}
	return nw, nil
}

// NewLine builds a chain 0-1-2-…-(n-1).
func NewLine(n int, cfg Config) (*Network, error) {
	edges := make([][2]NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]NodeID{NodeID(i - 1), NodeID(i)})
	}
	return New(n, edges, cfg)
}

// NewStar builds a hub-and-spoke topology with node 0 as the hub.
func NewStar(n int, cfg Config) (*Network, error) {
	edges := make([][2]NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]NodeID{0, NodeID(i)})
	}
	return New(n, edges, cfg)
}

// NewTree builds a complete k-ary tree with n nodes rooted at 0.
func NewTree(n, fanout int, cfg Config) (*Network, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("overlay: fanout must be >= 1, got %d", fanout)
	}
	edges := make([][2]NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]NodeID{NodeID((i - 1) / fanout), NodeID(i)})
	}
	return New(n, edges, cfg)
}

func validateTree(n int, edges [][2]NodeID) error {
	if len(edges) != n-1 {
		return fmt.Errorf("%w: %d nodes need %d edges, got %d", ErrNotATree, n, n-1, len(edges))
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := int(e[0]), int(e[1])
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("%w: edge %v out of range", ErrNotATree, e)
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			return fmt.Errorf("%w: edge %v closes a cycle", ErrNotATree, e)
		}
		parent[ra] = rb
	}
	return nil
}

// NumNodes returns the broker count.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Subscribe registers a subscription at broker `at`; the handler runs on
// that broker. The subscription is flooded through the overlay before
// Subscribe-concurrent publishes at distant brokers can see it; call Flush
// for a quiescent point.
func (nw *Network) Subscribe(at NodeID, expr boolexpr.Expr, h Handler) (SubRef, error) {
	if nw.closed.Load() {
		return SubRef{}, ErrClosed
	}
	if int(at) < 0 || int(at) >= len(nw.nodes) {
		return SubRef{}, fmt.Errorf("%w: %d", ErrUnknownNode, at)
	}
	if expr == nil {
		return SubRef{}, fmt.Errorf("overlay: nil subscription expression")
	}
	if h == nil {
		return SubRef{}, fmt.Errorf("overlay: nil handler")
	}
	// Validate compilability up front (with a throwaway interner) so that
	// installation cannot fail asynchronously mid-flood.
	var n predicate.ID
	if _, err := subtree.Compile(expr, func(predicate.P) predicate.ID { n++; return n }, subtree.Options{}); err != nil {
		return SubRef{}, fmt.Errorf("overlay: invalid subscription: %w", err)
	}
	id := nw.nextSub.Add(1)
	nw.subOrigin.Store(id, at)
	nw.send(nw.nodes[at], message{m: router.Msg{Kind: router.Sub, SubID: id, Expr: expr}, from: -1, handler: h})
	return SubRef{id: id}, nil
}

// Unsubscribe removes a subscription network-wide.
func (nw *Network) Unsubscribe(ref SubRef) error {
	if nw.closed.Load() {
		return ErrClosed
	}
	origin, ok := nw.subOrigin.LoadAndDelete(ref.id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSub, ref.id)
	}
	nw.send(nw.nodes[origin.(NodeID)], message{m: router.Msg{Kind: router.Unsub, SubID: ref.id}, from: -1})
	return nil
}

// Publish injects an event at broker `at`.
func (nw *Network) Publish(at NodeID, ev event.Event) error {
	if nw.closed.Load() {
		return ErrClosed
	}
	if int(at) < 0 || int(at) >= len(nw.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, at)
	}
	nw.published.Inc()
	nw.send(nw.nodes[at], message{m: router.Msg{Kind: router.Event, Ev: ev}, from: -1})
	return nil
}

// send enqueues an API-injected message, tracking it for Flush quiescence.
// API callers may block on a full inbox; broker goroutines never call this
// (their sends go through spill queues), so the blocking cannot cycle.
func (nw *Network) send(to *node, m message) {
	nw.track(1)
	select {
	case to.inbox <- m:
	case <-nw.quit:
		nw.track(-1)
	}
}

// track adjusts the in-flight message count, waking Flush at zero.
func (nw *Network) track(delta int64) {
	nw.mu.Lock()
	nw.inflight += delta
	if nw.inflight == 0 {
		nw.flushed.Broadcast()
	}
	nw.mu.Unlock()
}

// Flush blocks until every in-flight message (including cascaded forwards)
// has been processed, or until the network is closed — messages still
// queued at Close are discarded, not processed, so waiting on them would
// spin forever.
func (nw *Network) Flush() {
	nw.mu.Lock()
	for nw.inflight != 0 && !nw.closed.Load() {
		nw.flushed.Wait()
	}
	nw.mu.Unlock()
}

// Stats returns an activity snapshot. Every node's router shares the
// network registry's instruments, so the totals come from ONE registry
// snapshot rather than a per-node sweep of independently read atomics —
// the snapshot's effect-before-cause read order is what lets counters
// reconcile (e.g. Published ≥ Forwarded on single-next-hop topologies)
// even while brokers are mid-storm.
func (nw *Network) Stats() Stats {
	var st Stats
	for _, s := range nw.reg.Snapshot() {
		switch s.Name {
		case "overlay_published_total":
			st.Published = s.Value
		case "overlay_install_errors_total":
			st.InstallErrors = s.Value
		case "overlay_shed_total":
			st.Shed = s.Value
		case "overlay_spilled_bytes_total":
			st.SpilledBytes = s.Value
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

// Close stops all brokers and waits for their goroutines. Queued messages
// are discarded; Flush calls in progress return.
func (nw *Network) Close() {
	if nw.closed.Swap(true) {
		return
	}
	close(nw.quit)
	for _, nd := range nw.nodes {
		for _, q := range nd.out {
			q.Close()
		}
	}
	nw.wg.Wait()
	nw.mu.Lock()
	nw.flushed.Broadcast()
	nw.mu.Unlock()
}

// nodeTransport adapts a node's spill queues to the router's non-blocking
// Transport: Send only ever enqueues on a local flow-controlled queue
// (router.EnqueueMsg decides what a congested link sheds).
type nodeTransport node

func (t *nodeTransport) Send(link int, m router.Msg) {
	nd := (*node)(t)
	nd.net.track(1)
	if !router.EnqueueMsg(nd.out[link], m) {
		nd.net.track(-1)
	}
}

// run is the broker goroutine: it drains the inbox through the router and
// never blocks on any other broker's state.
func (nd *node) run() {
	defer nd.net.wg.Done()
	for {
		select {
		case m := <-nd.inbox:
			if err := nd.rt.Handle(m.m, m.handler, m.from); err != nil {
				nd.anomaly(err)
			}
			nd.net.track(-1)
		case <-nd.net.quit:
			return
		}
	}
}

// drainLink is the writer goroutine for one link: it moves spill-queue
// messages into the neighbour's inbox. Blocking here is harmless — the
// queue behind it is unbounded and the broker goroutine stays free to keep
// draining its own inbox, which is what unblocks the neighbour in turn.
func (nd *node) drainLink(i int) {
	defer nd.net.wg.Done()
	nb := nd.neighbors[i]
	from := nd.revIdx[i]
	for {
		m, ok := nd.out[i].Pop()
		if !ok {
			return
		}
		select {
		case nb.inbox <- message{m: m, from: from}:
		case <-nd.net.quit:
			nd.net.track(-1)
			return
		}
	}
}

// anomaly surfaces a routing error as a counted stat plus the optional
// callback — a federated deployment cannot debug panics in a peer process.
func (nd *node) anomaly(err error) {
	nd.net.installErrors.Inc()
	if nd.net.cfg.OnError != nil {
		nd.net.cfg.OnError(nd.id, err)
	}
}
