package noncanon

import (
	"fmt"

	"noncanon/internal/broker"
	"noncanon/internal/obs"
)

// Metrics is a namespaced registry of zero-allocation instruments
// (counters, gauges, latency histograms). Pass one to NewBroker via
// WithBrokerMetrics to make the broker record into it; expose it with
// obs.Serve-style endpoints from your main package, or read it directly
// with Snapshot. See internal/obs for the instrument semantics.
type Metrics = obs.Registry

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Broker is a single-process publish/subscribe broker: subscribers register
// Boolean subscriptions with handlers or channels and receive matching
// events asynchronously. It is safe for concurrent use, and Publish calls
// match in parallel — the underlying engine serialises matching only
// against subscription changes, never against other matches.
//
// Delivery never blocks publishers: each subscription's consumer — its
// handler or channel — holds a bounded queue, events beyond it are dropped
// and counted (BrokerSubscription.Dropped), and a subscription with nothing
// queued owns no goroutine.
type Broker struct {
	b *broker.Broker
}

// BrokerSubscription is a live broker registration.
type BrokerSubscription = broker.Subscription

// BrokerStats is a broker activity snapshot.
type BrokerStats = broker.Stats

// BrokerOption configures a Broker.
type BrokerOption func(*brokerConfig)

type brokerConfig struct {
	queueSize int
	aggregate bool
	metrics   *obs.Registry
}

// WithQueueSize sets the per-subscription delivery queue capacity.
func WithQueueSize(n int) BrokerOption {
	return func(c *brokerConfig) { c.queueSize = n }
}

// WithBrokerAggregation shares engine entries between subscribers: live
// filters are arranged in an incrementally maintained covering poset
// (internal/cover/dag). Identical filters (modulo operand/operator-order
// normalisation, see internal/cover) share one entry, and only the
// frontier — filters no other live filter provably covers — occupies
// engine entries. A subscription whose filter is covered attaches beneath
// its coverer with no engine mutation at all; matched events descend from
// frontier entries through covered filters, re-evaluating each, so
// delivery semantics are unchanged. Unsubscribing a frontier filter's last
// subscriber promotes newly uncovered descendants into the engine before
// the dying entry is retracted, so matching never gaps. Engine size — and
// matching cost — then tracks the covering frontier rather than the number
// of subscribers (see BrokerStats.FrontierFilters).
func WithBrokerAggregation() BrokerOption {
	return func(c *brokerConfig) { c.aggregate = true }
}

// WithBrokerMetrics registers the broker's instruments — publish and
// delivery counters, match/publish latency histograms, engine-size
// gauges — in m, turning on the latency clock. Without this option the
// broker still counts (Stats works) but pays no timing overhead and
// exposes nothing. The increment path allocates nothing either way.
func WithBrokerMetrics(m *Metrics) BrokerOption {
	return func(c *brokerConfig) { c.metrics = m }
}

// NewBroker builds a broker backed by the non-canonical matching engine.
func NewBroker(opts ...BrokerOption) *Broker {
	var cfg brokerConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Broker{b: broker.New(broker.Options{
		QueueSize: cfg.queueSize,
		Aggregate: cfg.aggregate,
		Metrics:   cfg.metrics,
	})}
}

// Subscribe parses and registers a textual subscription with a handler. The
// subscription's events reach the handler one at a time, in publish order,
// on a goroutine that exists only while some are queued.
//
// Ownership: events a handler receives are always owned — the broker
// calls Retain before queueing, so even an event decoded in the wire
// layer's zero-copy aliasing mode no longer references any network
// buffer by the time it reaches a subscriber. Handlers may keep a
// delivered Event indefinitely; Events are immutable and safe to share.
func (br *Broker) Subscribe(sub string, h func(ev Event)) (*BrokerSubscription, error) {
	x, err := Parse(sub)
	if err != nil {
		return nil, fmt.Errorf("noncanon: %w", err)
	}
	return br.b.Subscribe(x, broker.Handler(h))
}

// SubscribeChan parses and registers a textual subscription, returning the
// event stream: a channel of the configured queue size that Publish sends to
// directly, dropping (and counting) what finds it full. Unsubscribe (or
// broker Close) closes it behind the last event sent.
func (br *Broker) SubscribeChan(sub string) (*BrokerSubscription, <-chan Event, error) {
	x, err := Parse(sub)
	if err != nil {
		return nil, nil, fmt.Errorf("noncanon: %w", err)
	}
	s, ch, err := br.b.SubscribeChan(x)
	if err != nil {
		return nil, nil, err
	}
	return s, ch, nil
}

// SubscribeExpr registers an already-parsed subscription with a handler.
func (br *Broker) SubscribeExpr(x Expr, h func(ev Event)) (*BrokerSubscription, error) {
	return br.b.Subscribe(x, broker.Handler(h))
}

// Publish routes an event to all matching subscriptions; it returns how
// many subscriptions it matched and never blocks on slow consumers (a
// subscriber whose queue is full drops the event — see Dropped — without
// lowering the result).
func (br *Broker) Publish(ev Event) (int, error) { return br.b.Publish(ev) }

// PublishBatch routes a batch of events in one pass: the broker's read
// lock is taken once for the whole batch, so per-event overhead is
// amortised across it, and because subscription changes need the write
// lock, every event of the batch sees the same subscriptions. It returns
// the per-event matched-subscription counts, aligned with evs — each entry
// is exactly what Publish of that event would have returned — and, like
// Publish, never blocks on slow consumers.
func (br *Broker) PublishBatch(evs []Event) ([]int, error) { return br.b.PublishBatch(evs) }

// Stats returns an activity snapshot.
func (br *Broker) Stats() BrokerStats { return br.b.Stats() }

// Close stops intake and waits for all deliveries to drain.
func (br *Broker) Close() error { return br.b.Close() }
