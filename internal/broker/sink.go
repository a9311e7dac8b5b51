package broker

import (
	"sync"
	"sync/atomic"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
)

// Sink consumes the deliveries of the subscriptions attached to it.
type Sink interface {
	// Deliver offers ev for the subscription the sink knows as handle and
	// reports whether the sink took it. Publishers call it under the
	// broker's read lock, several at once: it must not block. ev may alias
	// the publisher's frame buffer, which is reused once Publish returns —
	// a sink encodes or copies inside the call, and one that must keep the
	// event keeps ev.Clone().
	Deliver(handle uint64, ev event.Event) bool
}

// Outlet is the broker's end of one sink. The subscriptions delivered
// through it share one bound — Options.QueueSize undelivered deliveries for
// each live one — and one congestion state: the sink calls Refuse when it
// turns a delivery down at that bound and Sent as deliveries leave it, both
// under the lock that guards its backlog, so that a refusal cannot be
// ordered behind the drain that should have cleared it.
type Outlet struct {
	b     *Broker
	sink  Sink
	keeps bool // the sink queues events themselves: see Broker.keepers

	capacity  atomic.Int64 // QueueSize × subs
	congested atomic.Bool  // written under mu
	mu        sync.Mutex   // orders congestion flips against subs changes
	subs      int64        // live subscriptions: the gauge's share while congested
}

// Attach returns the outlet on which sink's subscriptions are made.
func (b *Broker) Attach(sink Sink) *Outlet { return &Outlet{b: b, sink: sink} }

// Subscribe registers expr for delivery to the outlet's sink as handle.
func (o *Outlet) Subscribe(expr boolexpr.Expr, handle uint64) (*Subscription, error) {
	return o.b.subscribe(expr, o, handle)
}

// Capacity is how many undelivered deliveries the sink may hold.
func (o *Outlet) Capacity() int { return int(o.capacity.Load()) }

// Refuse records that the sink turned a delivery down at its bound.
func (o *Outlet) Refuse() { o.setCongested(true) }

// Sent counts n deliveries as delivered — their frames handed to the
// socket, their handler returned — and, with backlog deliveries still
// held, ends congestion once that is a quarter of the bound or less
// (hysteresis, so the signal does not flap at the boundary).
func (o *Outlet) Sent(n, backlog int) {
	o.b.delivered.Add(uint64(n))
	if backlog <= o.Capacity()/4 {
		o.setCongested(false)
	}
}

// Lost counts n deliveries the sink took and will never deliver, its
// consumer being gone, as dropped.
func (o *Outlet) Lost(n int) { o.b.dropped.Add(uint64(n)) }

func (o *Outlet) setCongested(on bool) {
	if o.congested.Load() == on {
		return
	}
	o.mu.Lock()
	if o.congested.CompareAndSwap(!on, on) {
		share := o.subs
		if !on {
			share = -share
		}
		o.b.congestedSubs.Add(share)
	}
	o.mu.Unlock()
}

// adjust moves the live-subscription count by d, and with it the bound and
// the outlet's share of the congestion gauge.
func (o *Outlet) adjust(d int64) {
	o.mu.Lock()
	o.subs += d
	o.capacity.Store(o.subs * int64(o.b.opts.QueueSize))
	if o.congested.Load() {
		o.b.congestedSubs.Add(d)
	}
	o.mu.Unlock()
}

// handlerSink is the sink of one in-process handler: a queue of
// Options.QueueSize events beside the one in the handler, drained by a
// goroutine that exists only while there is something to drain.
type handlerSink struct {
	Outlet
	h   Handler
	run func() // drain, bound once so that starting it allocates nothing

	qmu     sync.Mutex
	q       []event.Event // q[head:] is the event in the handler, then the queue
	head    int
	running bool
}

// idleQueueCap is the largest queue, in events, an idle handler sink keeps
// for its next burst; a larger one is left to the collector.
const idleQueueCap = 8

func newHandlerSink(b *Broker, h Handler) *Outlet {
	s := &handlerSink{Outlet: Outlet{b: b, keeps: true}, h: h}
	s.sink, s.run = s, s.drain
	return &s.Outlet
}

// Deliver queues ev (owned: Publish Retained it) and starts the drain if
// none is running.
//
//nclint:hotpath
func (s *handlerSink) Deliver(_ uint64, ev event.Event) bool {
	s.qmu.Lock()
	if len(s.q)-s.head > s.b.opts.QueueSize {
		s.Refuse()
		s.qmu.Unlock()
		return false
	}
	if len(s.q) == cap(s.q) {
		if s.head > 0 { // reclaim the delivered prefix before growing
			n := copy(s.q, s.q[s.head:])
			clear(s.q[n:])
			s.q, s.head = s.q[:n], 0
		} else { // two sizes, not doublings: what an idle sink keeps, then the bound
			size := s.b.opts.QueueSize + 1
			if len(s.q) == 0 {
				size = min(size, idleQueueCap)
			}
			s.q = append(make([]event.Event, 0, size), s.q...)
		}
	}
	s.q = append(s.q, ev)
	start := !s.running
	if start {
		s.running = true
		s.b.wg.Add(1) // under the publisher's read lock, so before Close waits
	}
	s.qmu.Unlock()
	if start {
		go s.run()
	}
	return true
}

// drain hands queued events to the handler in order until none is left.
func (s *handlerSink) drain() {
	defer s.b.wg.Done()
	s.qmu.Lock()
	for s.head < len(s.q) {
		ev := s.q[s.head]
		s.qmu.Unlock()
		s.h(ev)
		s.qmu.Lock()
		s.q[s.head] = event.Event{}
		s.head++
		s.Sent(1, len(s.q)-s.head)
	}
	s.q, s.head, s.running = s.q[:0], 0, false
	if cap(s.q) > idleQueueCap {
		s.q = nil
	}
	s.qmu.Unlock()
}

// chanSink is the sink of one SubscribeChan channel: Publish sends straight
// to it. A full channel drops and counts, but feeds no congestion signal —
// nothing observes the channel's reader catching up, so nothing could end
// it.
type chanSink struct {
	ch  chan event.Event
	out *Outlet
}

func (c *chanSink) Deliver(_ uint64, ev event.Event) bool {
	select {
	case c.ch <- ev:
		c.out.Sent(1, 0)
		return true
	default:
		return false
	}
}
