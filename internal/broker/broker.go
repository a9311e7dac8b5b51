// Package broker implements a single-process publish/subscribe broker on
// top of the non-canonical matching engine: subscribers register Boolean
// subscriptions and receive matching events asynchronously.
//
// Delivery model (sink.go): a subscription is a (sink, handle) pair and the
// sink is the consumer — one per TCP connection (netbroker's), one per
// in-process handler, one per SubscribeChan channel. Publish makes one
// non-blocking Sink.Deliver call per matched subscription and never waits
// on a consumer: a sink holds at most Options.QueueSize undelivered
// deliveries per live subscription, and a refusal beyond that is counted
// (Subscription.Dropped, Stats.Dropped) and feeds the congestion signal —
// the standard back-pressure posture for notification services. An idle
// handler subscription owns neither goroutine nor queue; Close stops intake
// and waits for the handler goroutines still draining.
//
// Concurrency: Publish holds only read locks end to end — the broker's
// subscriber map and the engine's subscription store are both
// RWMutex-guarded — so concurrent publishers match and enqueue in parallel;
// Subscribe/Unsubscribe briefly exclude them while mutating the store.
//
// Aggregation: with Options.Aggregate the broker maintains the covering
// poset of live filters (internal/cover/dag). Subscribers whose filters
// intern to one canonical key (cover.Key) share one poset node, and a node
// whose filter is provably covered by a live one (cover.Covers) attaches
// beneath it without touching the engine, so engine size — and therefore
// matching work — tracks the covering *frontier*, the uncovered-maximal
// filters, rather than the number of subscribers. A poset with no covering
// edges is plain identical-filter interning. Delivery stays exact: events
// matching a frontier entry are re-checked against each covered
// descendant's own filter (with sound subtree pruning — an event that fails
// a filter fails everything it covers) before fan-out. Unsubscribe drops
// one share; when a frontier filter's last subscriber leaves, its orphaned
// descendants are promoted into the engine *before* the dying entry is
// retracted, mirroring the overlay's re-flood-before-retract rule, so
// matching never gaps. Stats.DistinctFilters, Stats.FrontierFilters,
// Stats.AggregatedSubscribers and Stats.CoveredSubscribers make the saving
// observable.
package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/cover"
	"noncanon/internal/cover/dag"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/obs"
	"noncanon/internal/predicate"
)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("broker: closed")

// DefaultQueueSize is the default number of undelivered deliveries a sink
// may hold for each of its live subscriptions.
const DefaultQueueSize = 64

// Handler consumes delivered events. A subscription's events reach its
// handler one at a time, in publish order, on a goroutine of its own; a
// slow handler delays (and eventually drops) only its own subscription's
// events.
type Handler func(ev event.Event)

// Options configures a broker.
type Options struct {
	// QueueSize bounds what a sink may hold undelivered: this many
	// deliveries for each of its live subscriptions, so a handler's queue
	// holds QueueSize events and a TCP connection with n subscriptions
	// QueueSize × n deliveries (default DefaultQueueSize).
	QueueSize int
	// Aggregate maintains the covering poset of live filters
	// (internal/cover/dag): identical filters share one entry, only
	// frontier (uncovered-maximal) filters occupy engine entries, and
	// covered subscriptions attach beneath them and are re-checked against
	// their own filter at delivery. Delivery semantics are unchanged —
	// every subscriber still receives every matching event through its own
	// sink.
	Aggregate bool
	// Metrics, when set, is the obs registry the broker's instruments live
	// in (counters, live gauges, and the match/publish latency
	// histograms). Nil keeps a private registry: Stats still works, the
	// counters cost exactly what they always did (one atomic add), and the
	// latency clock — two time.Now calls per publish — stays off.
	Metrics *obs.Registry
}

// matchBuf is the pooled result buffer of the publish path: MatchInto
// appends into its recycled slice, so a steady-state Publish allocates no
// match-result storage at all.
type matchBuf struct {
	ids []matcher.SubID
	// stack and visited are enqueueCovered's walk: the covered nodes still
	// to visit, and the nodes with several parents the event has reached.
	// visited is emptied after each event but keeps its buckets, so a
	// steady-state walk inserts into it without allocating.
	stack   []*dag.Node
	visited map[*dag.Node]struct{}
}

// Broker routes published events to matching subscribers.
type Broker struct {
	opts Options
	eng  *core.Engine

	mu     sync.RWMutex
	groups map[matcher.SubID]*filterGroup // engine entry → attached subscribers
	dag    *dag.DAG                       // covering poset (Aggregate only)
	nsubs  int                            // live subscriber count
	// keepers is the number of live subscriptions whose sink queues the
	// event itself (handlers, channels): while it is non-zero Publish must
	// Retain a borrowed event once, before the first of them sees it.
	keepers int
	// covered is the number of live subscribers attached to non-frontier
	// poset nodes (Aggregate only); guarded by mu.
	covered int
	closed  bool

	wg sync.WaitGroup

	// Activity instruments (internal/obs handles; a private registry when
	// Options.Metrics is nil, so incrementing costs one atomic either way).
	published  *obs.Counter
	batches    *obs.Counter
	delivered  *obs.Counter
	dropped    *obs.Counter
	aggregated *obs.Counter // subscribes deduped onto an existing filter

	// congestedSubs gauges how many live subscriptions sit on a congested
	// sink (one that refused a delivery and has not yet drained); Congested
	// derives the broker-wide backpressure signal from it.
	congestedSubs *obs.Gauge

	// timed gates the latency clock: true only with an exported registry
	// (Options.Metrics set), so the un-instrumented publish path pays no
	// time.Now calls. Even then only every latencySampleEvery-th Publish
	// is clocked (latencyTick selects it): three clock reads cost more
	// than the whole instrument budget on a small store, and systematic
	// 1-in-8 sampling preserves the quantiles while amortising the clock
	// to nothing. Batch calls are always clocked — the batch already
	// amortises the reads.
	timed          bool
	latencyTick    atomic.Uint64
	matchLatency   *obs.Histogram
	publishLatency *obs.Histogram

	// matchPool recycles *matchBuf values across Publish calls.
	matchPool sync.Pool
}

// latencySampleEvery is the Publish latency-clock sampling interval; it
// must be a power of two (the hot path masks, not divides).
const latencySampleEvery = 8

// filterGroup is the fan-out set of every subscriber that registered the
// (canonically) same filter. Without aggregation each group has exactly
// one member and owns one engine entry. Under aggregation the group hangs
// off its poset node (node.Data points back here) and id names an engine
// entry only while the node is on the covering frontier.
type filterGroup struct {
	id      matcher.SubID
	node    *dag.Node // covering-poset node (Aggregate only)
	members []*Subscription
}

// remove detaches s in O(1) via its stored member index and reports
// whether it was attached. Mass unsubscribe of a hot aggregated filter
// happens under the broker write lock, so removal must not scan the
// group's (possibly huge) member list.
func (g *filterGroup) remove(s *Subscription) bool {
	i := int(s.gidx)
	if i < 0 || i >= len(g.members) || g.members[i] != s {
		return false
	}
	last := len(g.members) - 1
	moved := g.members[last]
	g.members[i] = moved
	moved.gidx = int32(i)
	g.members[last] = nil
	g.members = g.members[:last]
	s.gidx = -1
	return true
}

// Subscription is a live registration: a filter in the engine and the
// (sink, handle) pair its matches are delivered to.
type Subscription struct {
	g       *filterGroup // owning group; guarded by the broker's mu
	out     *Outlet      // out.b is the broker
	handle  uint64       // the sink's name for this subscription
	dropped atomic.Uint64

	// gidx is the index in its filterGroup's members, guarded by the
	// broker's mu; 32 bits beside the Once keep the struct at 48 bytes.
	gidx       int32
	cancelOnce sync.Once
}

// detach runs once the subscription has left its group, when no publisher
// can reach it any more: its share of the sink's capacity goes, and a
// SubscribeChan channel closes behind its last event.
func (s *Subscription) detach() {
	s.out.adjust(-1)
	if c, ok := s.out.sink.(*chanSink); ok {
		close(c.ch)
	}
}

// New builds an empty broker.
func New(opts Options) *Broker {
	if opts.QueueSize <= 0 {
		opts.QueueSize = DefaultQueueSize
	}
	b := &Broker{
		opts:   opts,
		eng:    core.New(predicate.NewRegistry(), index.New(), core.Options{}),
		groups: make(map[matcher.SubID]*filterGroup, 64),
	}
	if opts.Aggregate {
		b.dag = dag.New()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Causes before effects (obs snapshots read newest-registered first):
	// published precedes delivered/dropped, so a registry snapshot cannot
	// show a delivery whose publication it missed.
	b.published = reg.Counter("broker_published_total")
	b.batches = reg.Counter("broker_batches_total")
	b.aggregated = reg.Counter("broker_aggregated_total")
	b.delivered = reg.Counter("broker_delivered_total")
	b.dropped = reg.Counter("broker_dropped_total")
	b.congestedSubs = reg.Gauge("broker_congested_subscriptions")
	b.matchLatency = reg.Histogram("broker_match_latency_seconds")
	b.publishLatency = reg.Histogram("broker_publish_latency_seconds")
	b.timed = opts.Metrics != nil
	if b.timed {
		// Live structure gauges, computed at scrape time under the broker
		// lock (scrapes are cold-path; Registry.Snapshot runs callbacks
		// with no registry lock held).
		reg.GaugeFunc("broker_subscriptions", func() int64 {
			return int64(b.NumSubscriptions())
		})
		reg.GaugeFunc("broker_engine_entries", func() int64 {
			return int64(b.Stats().FrontierFilters)
		})
	}
	return b
}

// Subscribe registers an expression with a handler. Matching events queue
// in the subscription's own sink and the handler runs on a goroutine that
// lives only while that queue is non-empty.
func (b *Broker) Subscribe(expr boolexpr.Expr, h Handler) (*Subscription, error) {
	if h == nil {
		return nil, fmt.Errorf("broker: nil handler")
	}
	return b.subscribe(expr, newHandlerSink(b, h), 0)
}

// SubscribeChan registers an expression and returns a receive channel of
// Options.QueueSize slots that Publish sends to directly; an event that
// finds it full is dropped and counted. The channel is closed by
// Unsubscribe (or broker Close), behind the last event sent.
func (b *Broker) SubscribeChan(expr boolexpr.Expr) (*Subscription, <-chan event.Event, error) {
	c := &chanSink{ch: make(chan event.Event, b.opts.QueueSize)}
	c.out = &Outlet{b: b, sink: c, keeps: true}
	s, err := b.subscribe(expr, c.out, 0)
	if err != nil {
		return nil, nil, err
	}
	return s, c.ch, nil
}

// subscribe registers expr for delivery through out's sink as handle.
func (b *Broker) subscribe(expr boolexpr.Expr, out *Outlet, handle uint64) (*Subscription, error) {
	// Everything that walks the expression without touching shared state
	// happens before the lock that publishers wait on. With Aggregate, a
	// filter whose key is live joins that filter's node and is never
	// registered, so it is not prepared either.
	var key string
	known := false
	if b.opts.Aggregate {
		key = cover.Key(expr)
		known = b.holds(key)
	}
	var prep core.Prepared
	if !known {
		var err error
		if prep, err = b.eng.Prepare(expr); err != nil {
			return nil, err
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if known && b.dag.Lookup(key) == nil {
		// Its last subscriber left between the look and the lock.
		var err error
		if prep, err = b.eng.Prepare(expr); err != nil {
			return nil, err
		}
	}
	var g *filterGroup
	if b.dag != nil {
		g = b.subscribeDAG(key, expr, prep)
	} else {
		id := b.eng.Register(prep)
		g = &filterGroup{id: id}
		b.groups[id] = g
	}
	s := &Subscription{g: g, out: out, handle: handle, gidx: int32(len(g.members))}
	out.adjust(1) // capacity before the first publisher can find s
	g.members = append(g.members, s)
	b.nsubs++
	if out.keeps {
		b.keepers++
	}
	if b.dag != nil && !g.node.Frontier() {
		b.covered++
	}
	return s, nil
}

// holds reports whether the covering poset has a live node of this key.
func (b *Broker) holds(key string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dag.Lookup(key) != nil
}

// subscribeDAG interns the filter into the covering poset and keeps the
// engine equal to the frontier, registering prep if the filter is a new
// frontier entry. Caller holds the write lock and appends the new member
// afterwards. Ordering: a brand-new frontier filter enters the engine
// before any entries it demotes are retracted, so matching never gaps.
func (b *Broker) subscribeDAG(key string, expr boolexpr.Expr, prep core.Prepared) *filterGroup {
	res := b.dag.AddKeyed(key, expr)
	g, _ := res.Node.Data.(*filterGroup)
	if g == nil {
		g = &filterGroup{node: res.Node}
		res.Node.Data = g
	}
	if res.New && res.Frontier {
		g.id = b.eng.Register(prep)
		b.groups[g.id] = g
	}
	if !res.New {
		b.aggregated.Inc()
	}
	for _, f := range res.Demoted {
		fg := f.Data.(*filterGroup)
		delete(b.groups, fg.id)
		_ = b.eng.Unsubscribe(fg.id)
		fg.id = 0
		b.covered += len(fg.members)
	}
	return g
}

// ID returns the engine subscription ID. With Options.Aggregate,
// subscribers sharing a filter share the ID — it names the engine entry,
// not the subscriber — and a covered subscription has no engine entry of
// its own: ID reports 0 until (if ever) its filter is promoted to the
// covering frontier.
func (s *Subscription) ID() matcher.SubID {
	s.out.b.mu.RLock()
	defer s.out.b.mu.RUnlock()
	return s.g.id
}

// Dropped returns how many events were discarded because this
// subscription's sink refused them.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Unsubscribe removes the subscription; events its sink already holds are
// still delivered. Under aggregation the shared engine entry is detached
// only when the last attached subscriber unsubscribes, and a dying
// frontier filter first promotes its orphaned covered descendants into the
// engine, then retracts, so matching never gaps. It is idempotent.
func (s *Subscription) Unsubscribe() error {
	var err error
	didCancel := false
	s.cancelOnce.Do(func() {
		didCancel = true
		b := s.out.b
		b.mu.Lock()
		// After Close the broker already detached everyone; skip the
		// bookkeeping (Close's own cancelOnce pass handles the sink).
		if !b.closed && s.g.remove(s) {
			b.nsubs--
			if s.out.keeps {
				b.keepers--
			}
			if b.dag != nil {
				err = b.unsubscribeDAG(s.g)
			} else { // s was its group's only member
				delete(b.groups, s.g.id)
				err = b.eng.Unsubscribe(s.g.id)
			}
		}
		b.mu.Unlock()
		// No publisher can be inside the sink on s's behalf once the group
		// membership is gone (Publish delivers under the read lock).
		s.detach()
	})
	if !didCancel {
		return nil
	}
	return err
}

// unsubscribeDAG releases one reference on g's poset node after a member
// detached. When the node dies, children orphaned by its departure are
// subscribed (promoted to the frontier) *before* the dying entry is
// retracted. Caller holds the write lock.
func (b *Broker) unsubscribeDAG(g *filterGroup) error {
	if !g.node.Frontier() {
		b.covered--
	}
	res := b.dag.Release(g.node)
	if !res.Died {
		return nil
	}
	var err error
	for _, c := range res.Promoted {
		cg := c.Data.(*filterGroup)
		id, serr := b.eng.Subscribe(c.Expr())
		if serr != nil {
			err = serr
			continue
		}
		cg.id = id
		b.groups[id] = cg
		b.covered -= len(cg.members)
	}
	if res.WasFrontier {
		delete(b.groups, g.id)
		if uerr := b.eng.Unsubscribe(g.id); uerr != nil && err == nil {
			err = uerr
		}
	}
	g.node.Data = nil
	return err
}

// Publish matches the event and offers it to every matching subscriber's
// sink. It returns the number of subscribers the event matched and never
// blocks on slow consumers: a matched subscriber whose sink is full misses
// the event, which is counted where drops always were (Subscription.Dropped,
// Stats.Dropped, the congestion gauge), not subtracted from the result.
// Publish runs entirely under read locks, so any number of publishers
// proceed concurrently.
//
//nclint:hotpath
func (b *Broker) Publish(ev event.Event) (int, error) {
	var start time.Time
	timed := b.timed && b.latencyTick.Add(1)&(latencySampleEvery-1) == 0
	if timed {
		start = time.Now()
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return 0, ErrClosed
	}
	if b.keepers > 0 {
		// Handler and channel sinks queue the event itself, past any frame
		// buffer: a borrowed event (zero-copy wire decode) takes ownership
		// of its strings once, before the first of them sees it. Free for
		// owned events; sinks that encode inside the call need nothing.
		ev = ev.Retain()
	}
	b.published.Inc()
	mb, _ := b.matchPool.Get().(*matchBuf)
	if mb == nil {
		mb = &matchBuf{}
	}
	mb.ids = b.eng.MatchInto(ev, mb.ids[:0])
	if timed {
		b.matchLatency.Observe(time.Since(start))
	}
	n := b.deliverMatched(mb, ev, mb.ids)
	b.matchPool.Put(mb)
	if timed {
		b.publishLatency.Observe(time.Since(start))
	}
	return n, nil
}

// deliverMatched fans one event out to the subscribers behind its matched
// engine entries — each entry's own group, then the matching covered
// descendants of its poset node — and returns how many subscribers that
// is. Both publish entry points end here with their pooled buffer; the
// caller holds the read lock.
//
//nclint:hotpath
func (b *Broker) deliverMatched(mb *matchBuf, ev event.Event, ids []matcher.SubID) int {
	n := 0
	for _, id := range ids {
		g, ok := b.groups[id]
		if !ok {
			continue
		}
		n += b.enqueue(g, ev)
		if g.node != nil && len(g.node.Children()) > 0 {
			n += b.enqueueCovered(mb, g.node, ev)
		}
	}
	clear(mb.visited) // per event; a pooled buffer must not keep released nodes alive
	return n
}

// enqueue offers ev to the sink of every member of g without blocking and
// returns the member count: a refusal drops the event for that subscriber
// (the sink has marked itself congested). Caller holds the read lock.
//
//nclint:hotpath
func (b *Broker) enqueue(g *filterGroup, ev event.Event) int {
	for _, s := range g.members {
		if !s.out.sink.Deliver(s.handle, ev) {
			s.dropped.Add(1)
			b.dropped.Inc()
		}
	}
	return len(g.members)
}

// enqueueCovered fans a frontier match out to the matching covered
// descendants of the node's poset subtree. A frontier hit does not imply
// the covered filters match — coverage is one-way — so each descendant is
// re-checked against its own filter; a failing node soundly prunes its
// whole subtree (everything it covers matches a subset of what it does).
//
// mb.visited dedups nodes with several parents and is shared across every
// frontier root matched by the same event (two frontier entries can cover
// a common descendant) but never across events. The walk keeps its stack
// in mb too, so it allocates nothing once the pooled buffer has grown.
// Caller holds the read lock.
func (b *Broker) enqueueCovered(mb *matchBuf, root *dag.Node, ev event.Event) int {
	n := 0
	mb.stack = append(mb.stack[:0], root.Children()...)
	for len(mb.stack) > 0 {
		last := len(mb.stack) - 1
		c := mb.stack[last]
		mb.stack[last] = nil
		mb.stack = mb.stack[:last]
		if len(c.Parents()) > 1 {
			if _, seen := mb.visited[c]; seen {
				continue
			}
			if mb.visited == nil {
				mb.visited = make(map[*dag.Node]struct{})
			}
			mb.visited[c] = struct{}{}
		}
		if !c.Expr().Eval(ev) {
			continue
		}
		n += b.enqueue(c.Data.(*filterGroup), ev)
		mb.stack = append(mb.stack, c.Children()...)
	}
	return n
}

// PublishBatch matches and enqueues a batch of events, amortising the
// per-event envelope: the broker's read lock is taken once for the whole
// batch, every event is matched into one pooled buffer, and every event's
// matches are then enqueued from it. Subscribe and Unsubscribe take the
// broker's write lock before they touch the engine, so the held read lock
// is what makes every event of a batch see one store state.
//
// It returns the per-event matched-subscriber counts, aligned with evs;
// counts[i] equals what Publish(evs[i]) would have returned. Like Publish
// it never blocks on slow consumers: events beyond a subscriber's queue
// are dropped and counted (Subscription.Dropped, Stats.Dropped), and
// Stats.Published grows by len(evs).
//
//nclint:hotpath
func (b *Broker) PublishBatch(evs []event.Event) ([]int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	counts := make([]int, len(evs))
	if len(evs) == 0 {
		return counts, nil
	}
	var start time.Time
	if b.timed {
		start = time.Now()
	}
	b.published.Add(uint64(len(evs)))
	b.batches.Inc()
	// The batch's matches go back to back into one buffer; until delivery
	// overwrites it, counts[i] is where event i's matches end.
	mb, _ := b.matchPool.Get().(*matchBuf)
	if mb == nil {
		mb = &matchBuf{}
	}
	mb.ids = mb.ids[:0]
	for i, ev := range evs {
		mb.ids = b.eng.MatchInto(ev, mb.ids)
		counts[i] = len(mb.ids)
	}
	if b.timed {
		b.matchLatency.Observe(time.Since(start))
	}
	lo := 0
	for i, ev := range evs {
		hi := counts[i]
		counts[i] = 0
		if hi == lo {
			continue
		}
		// Like Publish: a borrowed event must own its strings before a
		// sink queues it. Only matched events pay even the check.
		if b.keepers > 0 {
			ev = ev.Retain()
		}
		counts[i] = b.deliverMatched(mb, ev, mb.ids[lo:hi])
		lo = hi
	}
	b.matchPool.Put(mb)
	if b.timed {
		// One observation per batch call: batch latency is the quantity a
		// batch-tuning operator wants, and per-event division is done better
		// by the reader than by the hot path.
		b.publishLatency.Observe(time.Since(start))
	}
	return counts, nil
}

// Congested reports whether the broker as a whole is backed up: at least
// one sink is congested and the subscriptions on congested sinks are at
// least half the live population. One slow subscriber among many is its own
// problem (its events drop, others flow); when congestion is the norm the
// broker is oversubscribed and publishers should back off — frontends
// (netbroker) translate this into a busy/retry-after reply.
func (b *Broker) Congested() bool {
	c := b.congestedSubs.Value()
	if c == 0 {
		return false
	}
	b.mu.RLock()
	n := b.nsubs
	b.mu.RUnlock()
	return 2*c >= int64(n)
}

// NumSubscriptions returns the live subscriber count (not the engine entry
// count; see Stats.FrontierFilters for that).
func (b *Broker) NumSubscriptions() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nsubs
}

// Stats is a broker activity snapshot. Published counts events (a batch
// of n grows it by n); Batches counts PublishBatch calls; Dropped counts
// deliveries a sink refused, from both publish paths, and deliveries a sink
// still held when its consumer went away.
//
// The two filter gauges answer different questions and coincide only
// without aggregation, where both equal Subscriptions:
//
//   - DistinctFilters counts live canonically-distinct filters (one per
//     cover.Key class, with provably-equivalent classes merged).
//   - FrontierFilters counts live engine entries. Under aggregation that
//     is only the covering frontier, and DistinctFilters − FrontierFilters
//     is the number of distinct filters riding covered beneath it.
//
// AggregatedSubscribers counts Subscribe calls over the broker's lifetime
// that were deduplicated onto an already-live filter (identical or
// provably equivalent). CoveredSubscribers is the current number of
// subscribers attached to covered (non-frontier) filters.
type Stats struct {
	Subscriptions         int
	DistinctFilters       int
	FrontierFilters       int
	CoveredSubscribers    int
	AggregatedSubscribers uint64
	Published             uint64
	Batches               uint64
	Delivered             uint64
	Dropped               uint64
	// CongestedSubscribers is the current number of subscriptions whose
	// sink refused a delivery and has not yet drained; see Broker.Congested.
	CongestedSubscribers int
}

// Stats returns a snapshot of broker activity.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	subs, frontier, covered := b.nsubs, len(b.groups), b.covered
	distinct := frontier
	if b.dag != nil {
		distinct = b.dag.Len()
	}
	b.mu.RUnlock()
	// Effects before causes: delivered/dropped are read before published,
	// so a snapshot taken mid-storm never shows deliveries outrunning the
	// publications that produced them.
	st := Stats{
		Subscriptions:        subs,
		DistinctFilters:      distinct,
		FrontierFilters:      frontier,
		CoveredSubscribers:   covered,
		CongestedSubscribers: int(b.congestedSubs.Value()),
	}
	st.Delivered = b.delivered.Value()
	st.Dropped = b.dropped.Value()
	st.AggregatedSubscribers = b.aggregated.Value()
	st.Batches = b.batches.Value()
	st.Published = b.published.Value()
	return st
}

// Close stops intake, cancels all subscriptions and waits for delivery
// goroutines to drain. Subsequent Publish/Subscribe calls fail with
// ErrClosed. Close is idempotent.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var remaining []*Subscription
	for _, g := range b.groups {
		remaining = append(remaining, g.members...)
	}
	// Covered subscribers hold no engine entry and therefore no groups
	// slot; collect them off the poset (frontier nodes are already in).
	if b.dag != nil {
		for _, n := range b.dag.Nodes() {
			if g, ok := n.Data.(*filterGroup); ok && !n.Frontier() {
				remaining = append(remaining, g.members...)
			}
		}
	}
	// Publish is locked out for good (closed flag), so the groups can go;
	// in-flight Unsubscribe calls see the closed flag and no-op.
	b.groups = make(map[matcher.SubID]*filterGroup)
	if b.dag != nil {
		b.dag = dag.New()
	}
	b.nsubs, b.keepers, b.covered = 0, 0, 0
	b.mu.Unlock()

	for _, s := range remaining {
		s.cancelOnce.Do(s.detach)
	}
	b.wg.Wait()
	return nil
}
