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
// Fan-out: every subscription is its own engine entry, and a slice indexed
// by the engine's dense IDs holds each entry's Subscription, so a
// subscription costs the broker one Subscription and one slot word.
//
// Concurrency: Publish holds only read locks end to end — the broker's
// fan-out table and the engine's subscription store are both
// RWMutex-guarded — so concurrent publishers match and enqueue in parallel;
// Subscribe/Unsubscribe briefly exclude them while mutating the store.
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
}

// Broker routes published events to matching subscribers.
type Broker struct {
	opts Options
	eng  *core.Engine

	mu    sync.RWMutex
	subs  []*Subscription // subs[id-1] is engine entry id's subscription
	nsubs int             // live subscriber count
	// keepers is the number of live subscriptions whose sink queues the
	// event itself (handlers, channels): while it is non-zero Publish must
	// Retain a borrowed event once, before the first of them sees it.
	keepers int
	closed  bool

	wg sync.WaitGroup

	// Activity instruments (internal/obs handles; a private registry when
	// Options.Metrics is nil, so incrementing costs one atomic either way).
	published *obs.Counter
	batches   *obs.Counter
	delivered *obs.Counter
	dropped   *obs.Counter

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

// Subscription is a live registration: a filter in the engine and the
// (sink, handle) pair its matches are delivered to.
type Subscription struct {
	out     *Outlet // out.b is the broker
	handle  uint64  // the sink's name for this subscription
	dropped atomic.Uint64
	// ref is its engine entry's ID, fixed before Subscribe returns; 32 bits
	// hold any store that fits in memory and keep the struct at 32 bytes.
	ref       uint32
	cancelled atomic.Bool // Unsubscribe or Close has begun detaching it
}

// detach runs once the subscription has left the fan-out table, when no
// publisher can reach it any more: its share of the sink's capacity goes,
// and a SubscribeChan channel closes behind its last event.
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
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Causes before effects (obs snapshots read newest-registered first):
	// published precedes delivered/dropped, so a registry snapshot cannot
	// show a delivery whose publication it missed.
	b.published = reg.Counter("broker_published_total")
	b.batches = reg.Counter("broker_batches_total")
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
			return int64(b.Stats().EngineEntries)
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
	// Preparing walks the expression without touching shared state, so it
	// happens before the lock that publishers wait on.
	prep, err := b.eng.Prepare(expr)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	s := &Subscription{out: out, handle: handle}
	out.adjust(1) // capacity before the first publisher can find s
	id := b.eng.Register(prep)
	s.ref = uint32(id)
	for len(b.subs) < int(id) {
		b.subs = append(b.subs, nil)
	}
	b.subs[id-1] = s
	b.nsubs++
	if out.keeps {
		b.keepers++
	}
	return s, nil
}

// ID returns the subscription's engine entry ID.
func (s *Subscription) ID() matcher.SubID { return matcher.SubID(s.ref) }

// Handle returns the name the subscription's sink knows it by.
func (s *Subscription) Handle() uint64 { return s.handle }

// Dropped returns how many events were discarded because this
// subscription's sink refused them.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Unsubscribe removes the subscription; events its sink already holds are
// still delivered. It is idempotent.
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
		b.subs[s.ref-1] = nil
		err = b.eng.Unsubscribe(matcher.SubID(s.ref))
	}
	b.mu.Unlock()
	// No publisher can be inside the sink on s's behalf once it has left
	// the fan-out table (Publish delivers under the read lock).
	s.detach()
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
	n := b.deliver(ev, mb.ids)
	b.matchPool.Put(mb)
	if timed {
		b.publishLatency.Observe(time.Since(start))
	}
	return n, nil
}

// deliver offers ev to the sink of each matched engine entry's
// subscription and returns their count; a refusal drops the event for that
// subscriber (the sink has marked itself congested). Caller holds the read
// lock.
//
//nclint:hotpath
func (b *Broker) deliver(ev event.Event, ids []matcher.SubID) int {
	for _, id := range ids {
		s := b.subs[id-1]
		if !s.out.sink.Deliver(s.handle, ev) {
			s.dropped.Add(1)
			b.dropped.Inc()
		}
	}
	return len(ids)
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
		counts[i] = b.deliver(ev, mb.ids[lo:hi])
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

// NumSubscriptions returns the live subscriber count.
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
// EngineEntries is the engine's own live entry count. Each subscription is
// one entry, so it equals Subscriptions while the broker is open; a
// difference is an entry the broker lost track of.
type Stats struct {
	Subscriptions int
	EngineEntries int
	Published     uint64
	Batches       uint64
	Delivered     uint64
	Dropped       uint64
	// CongestedSubscribers is the current number of subscriptions whose
	// sink refused a delivery and has not yet drained; see Broker.Congested.
	CongestedSubscribers int
}

// Stats returns a snapshot of broker activity.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	subs, entries := b.nsubs, 0
	if !b.closed {
		entries = b.eng.NumSubscriptions()
	}
	b.mu.RUnlock()
	// Effects before causes: delivered/dropped are read before published,
	// so a snapshot taken mid-storm never shows deliveries outrunning the
	// publications that produced them.
	st := Stats{
		Subscriptions:        subs,
		EngineEntries:        entries,
		CongestedSubscribers: int(b.congestedSubs.Value()),
	}
	st.Delivered = b.delivered.Value()
	st.Dropped = b.dropped.Value()
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
	b.nsubs, b.keepers = 0, 0
	b.mu.Unlock()

	// The table is fixed from here on (Subscribe and Unsubscribe see the
	// closed flag): detach each subscription no Unsubscribe claimed yet.
	for _, s := range b.subs {
		if s != nil && s.cancelled.CompareAndSwap(false, true) {
			s.detach()
		}
	}
	b.wg.Wait()
	return nil
}
