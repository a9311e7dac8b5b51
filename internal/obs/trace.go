package obs

import "sync"

// TraceRecord is one hop of a sampled event's journey through the
// federation: broker node saw trace TraceID arrive Hops forwards away
// from its origin, ArrivalNanos-OriginNanos after it was published.
type TraceRecord struct {
	TraceID      uint64
	Node         string
	Hops         int
	OriginNanos  int64
	ArrivalNanos int64
	LatencyNanos int64
}

// TraceRing is a fixed-capacity ring of recent trace records. Writers
// overwrite the oldest record once full; Recent returns oldest-first.
// It is mutex-guarded rather than lock-free — traces are sampled (one in
// N events), so the ring is off the hot path by construction and clarity
// wins over cleverness here.
type TraceRing struct {
	mu       sync.Mutex
	capacity int
	buf      []TraceRecord // allocated by the first Record
	next     int
	total    uint64
}

// NewTraceRing builds a ring holding up to capacity records; capacity
// is clamped to at least 1. A ring nothing records into holds no buffer.
func NewTraceRing(capacity int) *TraceRing {
	return &TraceRing{capacity: max(capacity, 1)}
}

// Record appends one hop record, evicting the oldest when full.
func (t *TraceRing) Record(rec TraceRecord) {
	t.mu.Lock()
	if t.buf == nil {
		t.buf = make([]TraceRecord, 0, t.capacity)
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, rec)
	} else {
		t.buf[t.next] = rec
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// Recent returns a copy of the buffered records, oldest first.
func (t *TraceRing) Recent() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Total reports how many records have ever been written, including
// those since overwritten.
func (t *TraceRing) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
