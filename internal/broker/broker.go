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
// Fan-out: a slice indexed by the engine's dense IDs heads each entry's
// chain of subscribers, linked through the Subscriptions themselves; a
// plain subscription costs the broker one Subscription and one slot word.
//
// Concurrency: Publish holds only read locks end to end — the broker's
// fan-out table and the engine's subscription store are both
// RWMutex-guarded — so concurrent publishers match and enqueue in parallel;
// Subscribe/Unsubscribe briefly exclude them while mutating the store.
//
// Aggregation: with Options.Aggregate the broker maintains the covering
// poset of live filters (internal/cover/dag). Subscribers whose filters
// intern to one canonical key (cover.Key) chain off one poset node, and a
// node whose filter is provably covered by a live one (cover.Covers)
// attaches beneath it without touching the engine, so engine size tracks
// the covering *frontier*, not the number of subscribers. Delivery stays
// exact: a frontier match is re-checked against each covered descendant's
// own filter (an event that fails a filter fails everything it covers).
// When a frontier filter's last subscriber leaves, its orphaned
// descendants enter the engine *before* the dying entry is retracted, so
// matching never gaps. Stats' filter and subscriber counts show the saving.
package broker

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
	// Aggregate keeps only the covering frontier of live filters in the
	// engine (see the package comment). Delivery is unchanged: every
	// subscriber receives every matching event through its own sink.
	Aggregate bool
	// Metrics, when set, is the obs registry the broker's instruments live
	// in (counters, live gauges, and the match/publish latency
	// histograms). Nil keeps a private registry: Stats still works, a
	// counter costs one atomic add, and the latency clock stays off.
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

	mu   sync.RWMutex
	subs []*Subscription // subs[id-1] heads engine entry id's chain
	dag  *dag.DAG        // covering poset (Aggregate only)
	// filters holds a slot per live poset node (Aggregate only), free the
	// vacated ones.
	filters []filter
	free    []uint32
	nsubs   int // live subscriber count
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
	// time.Now calls. Even then a per-call random draw (no shared counter)
	// clocks one Publish in latencySampleEvery: three clock reads cost more
	// than the whole instrument budget on a small store, and 1-in-8
	// sampling preserves the quantiles. Batch calls are always clocked —
	// the batch already amortises the reads.
	timed          bool
	matchLatency   *obs.Histogram
	publishLatency *obs.Histogram

	matchPool sync.Pool // recycles *matchBuf values across Publish calls
}

// latencySampleEvery is the Publish latency-clock sampling interval; it
// must be a power of two (the hot path masks, not divides).
const latencySampleEvery = 8

// filter is the slot of one covering-poset node (Aggregate only): the
// node, whose Data heads its subscribers' chain, and its engine entry while
// the node is on the covering frontier (0 while it is covered).
type filter struct {
	node *dag.Node
	id   matcher.SubID
}

// Subscription is a live registration: a filter in the engine and the
// (sink, handle) pair its matches are delivered to.
type Subscription struct {
	out     *Outlet // out.b is the broker
	handle  uint64  // the sink's name for this subscription
	dropped atomic.Uint64
	// next and prev chain the subscribers of one filter, guarded by the
	// broker's mu: removal is O(1) however many share a hot filter.
	next, prev *Subscription
	// ref is its engine entry's ID, or with Aggregate its node's filter
	// slot (guarded by mu); 32 bits hold any store that fits in memory
	// and keep the struct at 48 bytes.
	ref       uint32
	cancelled atomic.Bool // Unsubscribe or Close has begun detaching it
}

// detach runs once the subscription has left its chain, when no publisher
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
		opts:      opts,
		eng:       core.New(predicate.NewRegistry(), index.New(), core.Options{}),
		matchPool: sync.Pool{New: func() any { return new(matchBuf) }},
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
		b.mu.RLock()
		known = b.dag.Lookup(key) != nil
		b.mu.RUnlock()
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
	s := &Subscription{out: out, handle: handle}
	out.adjust(1) // capacity before the first publisher can find s
	if b.dag != nil {
		b.subscribeDAG(key, expr, prep, s)
	} else {
		id := b.eng.Register(prep)
		s.ref = uint32(id)
		*b.slot(id) = s
	}
	b.nsubs++
	if out.keeps {
		b.keepers++
	}
	return s, nil
}

// subscribeDAG interns the filter into the covering poset, chains s to its
// node and keeps the engine equal to the frontier, registering prep if the
// filter is a new frontier entry. Caller holds the write lock. Ordering: a
// brand-new frontier filter enters the engine before any entries it
// demotes are retracted, so matching never gaps.
func (b *Broker) subscribeDAG(key string, expr boolexpr.Expr, prep core.Prepared, s *Subscription) {
	res := b.dag.AddKeyed(key, expr)
	head, _ := res.Node.Data.(*Subscription)
	if res.New {
		s.ref = uint32(len(b.filters))
		if n := len(b.free); n > 0 {
			s.ref, b.free = b.free[n-1], b.free[:n-1]
			b.filters[s.ref] = filter{node: res.Node}
		} else {
			b.filters = append(b.filters, filter{node: res.Node})
		}
		if res.Frontier {
			b.filters[s.ref].id = b.eng.Register(prep)
		}
	} else {
		s.ref = head.ref
		b.aggregated.Inc()
	}
	if s.next = head; head != nil {
		head.prev = s
	}
	b.setHead(&b.filters[s.ref], s)
	if !res.Frontier {
		b.covered++
	}
	for _, n := range res.Demoted {
		f := &b.filters[n.Data.(*Subscription).ref]
		b.subs[f.id-1] = nil
		_ = b.eng.Unsubscribe(f.id)
		f.id = 0
		b.covered += n.Refs()
	}
}

// setHead makes s the head of f's chain, in the node and, while f holds an
// engine entry, in the fan-out table. Caller holds the write lock.
func (b *Broker) setHead(f *filter, s *Subscription) {
	f.node.Data = s
	if f.id != 0 {
		*b.slot(f.id) = s
	}
}

// slot returns engine entry id's fan-out slot, growing the table to reach
// it. Caller holds the write lock.
func (b *Broker) slot(id matcher.SubID) **Subscription {
	for len(b.subs) < int(id) {
		b.subs = append(b.subs, nil)
	}
	return &b.subs[id-1]
}

// ID returns the engine subscription ID. With Options.Aggregate,
// subscribers sharing a filter share the ID — it names the engine entry,
// not the subscriber — and a covered subscription has no engine entry of
// its own: ID reports 0 until (if ever) its filter is promoted to the
// covering frontier.
func (s *Subscription) ID() matcher.SubID {
	b := s.out.b
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dag != nil {
		return b.filters[s.ref].id
	}
	return matcher.SubID(s.ref)
}

// Handle returns the name the subscription's sink knows it by.
func (s *Subscription) Handle() uint64 { return s.handle }

// Dropped returns how many events were discarded because this
// subscription's sink refused them.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Unsubscribe removes the subscription; events its sink already holds are
// still delivered. Under aggregation the shared engine entry is detached
// only when the last attached subscriber unsubscribes, and a dying
// frontier filter first promotes its orphaned covered descendants into the
// engine, then retracts, so matching never gaps. It is idempotent.
func (s *Subscription) Unsubscribe() error {
	if !s.cancelled.CompareAndSwap(false, true) {
		return nil
	}
	b := s.out.b
	var err error
	b.mu.Lock()
	// After Close the broker already detached everyone; skip the
	// bookkeeping (Close detaches the sink of what it finds uncancelled).
	if !b.closed {
		b.nsubs--
		if s.out.keeps {
			b.keepers--
		}
		if b.dag != nil {
			err = b.unsubscribeDAG(s)
		} else { // s was its entry's only subscriber
			b.subs[s.ref-1] = nil
			err = b.eng.Unsubscribe(matcher.SubID(s.ref))
		}
	}
	b.mu.Unlock()
	// No publisher can be inside the sink on s's behalf once it has left
	// its chain (Publish delivers under the read lock).
	s.detach()
	return err
}

// unsubscribeDAG unchains s and releases one reference on its poset node.
// When the node dies, children orphaned by its departure are subscribed
// (promoted to the frontier) *before* the dying entry is retracted. Caller
// holds the write lock.
func (b *Broker) unsubscribeDAG(s *Subscription) error {
	f := &b.filters[s.ref]
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		b.setHead(f, s.next)
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	node, id := f.node, f.id
	if !node.Frontier() {
		b.covered--
	}
	res := b.dag.Release(node)
	if !res.Died {
		return nil
	}
	var err error
	for _, c := range res.Promoted {
		cid, serr := b.eng.Subscribe(c.Expr())
		if serr != nil {
			err = serr
			continue
		}
		head := c.Data.(*Subscription)
		b.filters[head.ref].id = cid
		*b.slot(cid) = head
		b.covered -= c.Refs()
	}
	if res.WasFrontier {
		b.subs[id-1] = nil
		if uerr := b.eng.Unsubscribe(id); uerr != nil && err == nil {
			err = uerr
		}
	}
	node.Data = nil
	b.filters[s.ref] = filter{}
	b.free = append(b.free, s.ref)
	return err
}

// Publish matches the event and offers it to every matching subscriber's
// sink, under read locks only, and returns the number of subscribers it
// matched. It never blocks on slow consumers: a full sink misses the event,
// which is counted as dropped (Subscription.Dropped, Stats.Dropped, the
// congestion gauge), not subtracted from the result.
//
//nclint:hotpath
func (b *Broker) Publish(ev event.Event) (int, error) {
	var start time.Time
	timed := b.timed && rand.Uint32()&(latencySampleEvery-1) == 0
	if timed {
		start = time.Now()
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return 0, ErrClosed
	}
	if b.keepers > 0 {
		// Handler and channel sinks keep the event past the frame buffer: a
		// borrowed event (zero-copy decode) owns its strings once, before
		// the first of them sees it. Free for owned events.
		ev = ev.Retain()
	}
	b.published.Inc()
	mb := b.matchPool.Get().(*matchBuf)
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

// deliverMatched fans one event out to each matched engine entry's chain,
// then to the matching covered descendants of its poset node, and returns
// how many subscribers that is. Caller holds the read lock.
//
//nclint:hotpath
func (b *Broker) deliverMatched(mb *matchBuf, ev event.Event, ids []matcher.SubID) int {
	n := 0
	for _, id := range ids {
		head := b.subs[id-1]
		n += b.enqueue(head, ev)
		if b.dag != nil && head != nil {
			if node := b.filters[head.ref].node; len(node.Children()) > 0 {
				n += b.enqueueCovered(mb, node, ev)
			}
		}
	}
	clear(mb.visited) // per event; a pooled buffer must not keep released nodes alive
	return n
}

// enqueue offers ev to the sink of every subscriber chained from head and
// returns their count; a refusal drops the event for that subscriber (the
// sink has marked itself congested). Caller holds the read lock.
//
//nclint:hotpath
func (b *Broker) enqueue(head *Subscription, ev event.Event) int {
	n := 0
	for s := head; s != nil; s = s.next {
		if !s.out.sink.Deliver(s.handle, ev) {
			s.dropped.Add(1)
			b.dropped.Inc()
		}
		n++
	}
	return n
}

// enqueueCovered fans a frontier match out to the covered descendants of
// root that match too: coverage is one-way, so each is re-checked against
// its own filter, and a failing node prunes its subtree. mb.visited dedups
// nodes with several parents across all of one event's frontier roots;
// with the stack in mb too, the walk allocates nothing once the pooled
// buffer has grown. Caller holds the read lock.
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
		n += b.enqueue(c.Data.(*Subscription), ev)
		mb.stack = append(mb.stack, c.Children()...)
	}
	return n
}

// PublishBatch matches and enqueues a batch of events under one read lock,
// so every event sees one store state: all are matched into one pooled
// buffer, then each one's matches are enqueued from it. It returns the
// per-event counts Publish would have returned, aligned with evs; like
// Publish it drops and counts what a full sink refuses, and
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
	mb := b.matchPool.Get().(*matchBuf)
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
		if b.keepers > 0 { // as in Publish; only matched events pay the check
			ev = ev.Retain()
		}
		counts[i] = b.deliverMatched(mb, ev, mb.ids[lo:hi])
		lo = hi
	}
	b.matchPool.Put(mb)
	if b.timed {
		// One observation per batch: the reader divides by the batch size.
		b.publishLatency.Observe(time.Since(start))
	}
	return counts, nil
}

// Congested reports whether the broker as a whole is backed up: the
// subscriptions on congested sinks are at least half the live population
// (and not none). One slow subscriber's events just drop; when congestion
// is the norm, publishers should back off (netbroker's busy reply).
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
	subs, covered := b.nsubs, b.covered
	frontier, distinct := 0, 0
	if !b.closed {
		frontier = b.eng.NumSubscriptions()
		distinct = frontier
		if b.dag != nil {
			distinct = b.dag.Len()
		}
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
	b.nsubs, b.keepers, b.covered = 0, 0, 0
	b.mu.Unlock()

	// The chains are fixed from here on (Subscribe and Unsubscribe see the
	// closed flag); with Aggregate every chain hangs off a poset node.
	if b.dag != nil {
		for _, n := range b.dag.Nodes() {
			head, _ := n.Data.(*Subscription)
			cancelChain(head)
		}
	} else {
		for _, s := range b.subs {
			cancelChain(s)
		}
	}
	b.wg.Wait()
	return nil
}

// cancelChain detaches each subscriber from head on that none claimed yet.
func cancelChain(head *Subscription) {
	for s := head; s != nil; s = s.next {
		if s.cancelled.CompareAndSwap(false, true) {
			s.detach()
		}
	}
}
