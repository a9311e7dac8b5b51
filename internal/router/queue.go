package router

import (
	"sync"
	"time"
)

// DefaultHighWater is the default congestion threshold of a flow-controlled
// queue, in accounted bytes.
const DefaultHighWater = 8 << 20

// Queue is a multi-producer FIFO ring buffer with a blocking consumer and
// credit-based flow control. It is the spill buffer that makes broker
// forwarding non-blocking: a broker goroutine pushes outbound messages here
// (never waiting on a peer), and a dedicated writer goroutine drains them
// toward the link at whatever pace the link sustains. Because Push never
// blocks, the classic A↔B full-inbox cycle — each broker stuck sending into
// the other's full queue, neither draining its own — cannot form.
//
// Flow control (NewFlowQueue) bounds what a slow or stalled consumer can
// pin in memory. The queue accounts bytes: the link's credit is the high
// watermark minus the queued bytes, and when credit runs out the queue is
// *congested*. Offer — the path for sheddable traffic (events) — then
// drops-and-counts instead of enqueueing, while Push — the path for control
// traffic (subscriptions, retractions) — always enqueues, so routing state
// stays consistent no matter how congested a link gets. Congestion clears
// with hysteresis once the consumer drains the queue below the low
// watermark. Control traffic is bounded by the subscription population, so
// shedding the event stream is what bounds the queue overall.
type Queue[T any] struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond

	// Ring storage: n items starting at head. Popped slots are zeroed so
	// they don't pin values, and the backing array really is reused — a
	// steady-state Push/Pop cycle allocates nothing.
	buf  []T
	head int
	n    int

	bytes  int
	closed bool

	sizeOf func(T) int
	high   int
	low    int

	congested      bool
	congestedSince time.Time

	pushed       uint64
	shed         uint64
	spilledBytes uint64
}

// QueueStats is a point-in-time accounting snapshot. Pushed, Shed and
// SpilledBytes are cumulative and survive Close; Items, Bytes and Congested
// describe the current queue state.
type QueueStats struct {
	// Items and Bytes are the currently queued message count and their
	// accounted size.
	Items int
	Bytes int
	// Pushed counts messages accepted (Push and successful Offer).
	Pushed uint64
	// Shed counts messages Offer dropped while congested.
	Shed uint64
	// SpilledBytes is the cumulative accounted size of accepted messages.
	SpilledBytes uint64
	// Congested reports whether the queue is out of credit.
	Congested bool
}

// NewFlowQueue builds an empty open queue with credit-based flow control.
// sizeOf estimates one item's accounted bytes. The queue turns congested
// when the accounted bytes reach high (default DefaultHighWater) and clears
// once they drain below low (default high/2).
func NewFlowQueue[T any](sizeOf func(T) int, high, low int) *Queue[T] {
	if high <= 0 {
		high = DefaultHighWater
	}
	if low <= 0 || low > high {
		low = high / 2
	}
	q := &Queue[T]{sizeOf: sizeOf, high: high, low: low}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// enqueueLocked appends item to the ring, growing the backing array only
// when full.
func (q *Queue[T]) enqueueLocked(item T, sz int) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = item
	q.n++
	q.bytes += sz
	q.pushed++
	q.spilledBytes += uint64(sz)
	if !q.congested && q.bytes >= q.high {
		q.congested = true
		q.congestedSince = time.Now()
	}
	q.nonEmpty.Signal()
}

// Push appends an item unconditionally — the control path: subscription
// floods and retractions are never shed, whatever the congestion state, so
// re-flood-before-retract ordering and routing-table consistency survive
// congestion. It never blocks. Pushes after Close are dropped.
func (q *Queue[T]) Push(item T) {
	q.mu.Lock()
	if !q.closed {
		q.enqueueLocked(item, q.sizeOf(item))
	}
	q.mu.Unlock()
}

// Offer appends an item unless the queue is congested or closed — the
// sheddable path for event traffic. A false return means the item was
// dropped; congestion drops are counted (QueueStats.Shed).
func (q *Queue[T]) Offer(item T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.congested {
		q.shed++
		return false
	}
	q.enqueueLocked(item, q.sizeOf(item))
	return true
}

// Pop removes the oldest item, blocking while the queue is empty. It
// returns ok=false once the queue is closed — a close wakes the consumer
// immediately, discarding queued items (shutdown is not a delivery
// guarantee). Draining below the low watermark restores the queue's credit.
func (q *Queue[T]) Pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.closed {
		var zero T
		return zero, false
	}
	item = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.bytes -= q.sizeOf(item)
	if q.congested && q.bytes < q.low {
		q.congested = false
	}
	return item, true
}

// Len reports the queued item count.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Stats returns an accounting snapshot.
func (q *Queue[T]) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Items:        q.n,
		Bytes:        q.bytes,
		Pushed:       q.pushed,
		Shed:         q.shed,
		SpilledBytes: q.spilledBytes,
		Congested:    q.congested,
	}
}

// CongestedFor returns how long the queue has been continuously congested,
// or zero when it is not. Eviction policies compare this against their
// deadline.
func (q *Queue[T]) CongestedFor() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.congested {
		return 0
	}
	return time.Since(q.congestedSince)
}

// Close wakes the consumer and discards queued items. Cumulative counters
// remain readable. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.buf, q.head, q.n, q.bytes = nil, 0, 0, 0
	q.congested = false
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// msgOverheadBytes is the fixed accounted cost of one routing message:
// struct, frame header and queue bookkeeping.
const msgOverheadBytes = 64

// subEstimateBytes is the accounted cost of a subscription flood beyond the
// fixed overhead. Filters cross the wire in text form; walking the
// expression on every push is not worth exactness for control traffic, so
// a generous flat estimate stands in.
const subEstimateBytes = 256

// EstimateMsgBytes estimates one routing message's accounted size for
// flow-controlled spill queues. Event payloads are measured (they dominate
// congested queues); control messages use flat estimates.
func EstimateMsgBytes(m Msg) int {
	switch m.Kind {
	case Event:
		return msgOverheadBytes + m.Ev.MemBytes()
	case Sub:
		return msgOverheadBytes + subEstimateBytes
	default:
		return msgOverheadBytes
	}
}

// EnqueueMsg puts one routing message on a link's spill queue and is the
// one place that knows which traffic may be shed: events go through Offer
// and are dropped-and-counted while the link is out of credit; control
// traffic (subscriptions, retractions) goes through Push and always
// enqueues, so routing state stays consistent however slow the peer. It
// reports false when an event was shed.
func EnqueueMsg(q *Queue[Msg], m Msg) bool {
	if m.Kind == Event {
		return q.Offer(m)
	}
	q.Push(m)
	return true
}
