// Package wire defines the binary protocol of the TCP broker: length-
// prefixed frames carrying a one-byte message type and a typed payload.
//
// Frame layout:
//
//	u32be  payload length (including the type byte)
//	u8     message type
//	...    payload
//
// Requests carry a client-chosen u32 request ID echoed in the response;
// events pushed by the server carry the subscription ID they matched.
// Events serialise as a u16 attribute count followed by name/kind/value
// triples with varint-length strings.
//
// Zero-copy contract: ReadFrameInto reuses a caller-owned buffer across
// frames, and the *Alias decode variants build borrowed events whose
// strings reference that buffer directly. A borrowed event is valid only
// until the buffer's next reuse; whoever keeps one longer — subscriber
// delivery, queues, durable references — must call Event.Retain first.
// Attribute names are resolved against the intern table with Lookup only
// (never Of), so a hostile peer streaming fabricated names cannot grow
// the process-wide symbol table.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"noncanon/internal/event"
	"noncanon/internal/intern"
	"noncanon/internal/value"
)

// MaxFrameSize bounds a frame's payload, protecting brokers from hostile
// or corrupted clients.
const MaxFrameSize = 1 << 20

// Message types.
const (
	// MsgSubscribe: u32 reqID, subscription text.
	MsgSubscribe byte = iota + 1
	// MsgSubscribed: u32 reqID, u64 subID.
	MsgSubscribed
	// MsgUnsubscribe: u32 reqID, u64 subID.
	MsgUnsubscribe
	// MsgOK: u32 reqID.
	MsgOK
	// MsgPublish: u32 reqID, event.
	MsgPublish
	// MsgPublished: u32 reqID, u32 matched-subscription count.
	MsgPublished
	// MsgEvent: u64 subID, event (server push).
	MsgEvent
	// MsgError: u32 reqID, error text.
	MsgError
	// MsgPing: u32 reqID.
	MsgPing
	// MsgPong: u32 reqID.
	MsgPong
	// MsgPublishBatch: u32 reqID, event batch (u32 count, then events).
	MsgPublishBatch
	// MsgPublishedBatch: u32 reqID, u32 count, count × u32 per-event
	// matched-subscription counts, aligned with the request's events.
	MsgPublishedBatch

	// Broker federation frames (internal/netoverlay). Brokers are peers:
	// these frames carry no request IDs and expect no replies — routing
	// state is eventually consistent across the tree.

	// MsgHello: u32 protocol version, u32 node ID. First frame in both
	// directions of a broker-to-broker connection.
	MsgHello
	// MsgSubForward: u64 subscription ID, filter text (sublang).
	MsgSubForward
	// MsgUnsubForward: u64 subscription ID.
	MsgUnsubForward
	// MsgEventForward: u8 hop count, event.
	MsgEventForward

	// MsgBusy: u32 reqID, u32 retry-after millis. A backpressure reply to
	// MsgPublish/MsgPublishBatch: the broker is congested and did not
	// accept the request; the client should retry after the hinted delay.
	MsgBusy
)

// FederationVersion is the broker federation protocol version carried in
// MsgHello; peers speaking a different version are rejected at handshake.
const FederationVersion = 1

// MaxBatchEvents bounds the events in one MsgPublishBatch frame. The frame
// size limit already bounds total bytes; this bounds the per-frame work a
// single request can demand from the broker, so an oversized batch is a
// rejectable request, not a protocol violation that drops the connection.
const MaxBatchEvents = 4096

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrMalformed     = errors.New("wire: malformed payload")
	ErrBatchTooLarge = errors.New("wire: batch exceeds event limit")
)

// BeginFrame appends the header of a frame of type typ to b with the length
// left open. The caller appends the payload and then calls EndFrame with
// the offset the frame began at (len(b) before this call), so a frame is
// built where it will be written from, next to its neighbours.
func BeginFrame(b []byte, typ byte) []byte { return append(b, 0, 0, 0, 0, typ) }

// EndFrame closes the frame begun at offset at by patching its length. A
// frame over MaxFrameSize is cut off again: b comes back as it was before
// BeginFrame, with ErrFrameTooLarge.
func EndFrame(b []byte, at int) ([]byte, error) {
	n := len(b) - at - 4
	if n > MaxFrameSize {
		return b[:at], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

// framePool recycles WriteFrame's scratch, so a frame costs no allocation
// and an idle writer retains no buffer of its own. Scratch a large frame
// grew past maxPooledFrame is left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// WriteFrame writes one frame in one Write: with TCP_NODELAY a header
// written apart from its payload is a system call and a segment of its own.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	bp := framePool.Get().(*[]byte)
	b, err := EndFrame(append(BeginFrame((*bp)[:0], typ), payload...), 0)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b[:0]
	}
	framePool.Put(bp)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame into a fresh buffer. Reader loops should use
// ReadFrameInto instead and reuse the buffer across frames; ReadFrame is
// the compatibility wrapper for cold paths (handshakes, tests).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = ReadFrameInto(r, nil)
	return typ, payload, err
}

// ReadFrameInto reads one frame into buf, growing it as needed, and
// returns the (possibly reallocated) buffer for the next call. payload
// aliases buf and is valid only until buf's next reuse: callers that keep
// any part of it — or any borrowed event decoded from it — past that
// point must copy (for events, Event.Retain). The steady state of a
// reader loop is zero allocations per frame once buf has grown to the
// connection's working frame size.
func ReadFrameInto(r io.Reader, buf []byte) (typ byte, payload []byte, bufOut []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, buf, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	if n > MaxFrameSize {
		return 0, nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: read payload: %w", err)
	}
	return buf[0], buf[1:], buf, nil
}

// FrameBuffered reports whether r holds its next frame whole, so that
// reading it cannot wait on the peer: a reader that batches its replies
// flushes them before a read that might.
func FrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return n-4 >= int(binary.BigEndian.Uint32(hdr))
}

// --- payload primitives ---

// AppendU32 appends a big-endian u32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian u64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadU32 consumes a big-endian u32.
func ReadU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: short u32", ErrMalformed)
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// ReadU64 consumes a big-endian u64.
func ReadU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: short u64", ErrMalformed)
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// ReadString consumes a uvarint-length-prefixed string.
func ReadString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return "", nil, fmt.Errorf("%w: bad string length", ErrMalformed)
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}

// --- event encoding ---

// Value kind tags on the wire.
const (
	kindInt byte = iota + 1
	kindFloat
	kindString
	kindBool
)

// AppendEvent appends the wire form of an event.
func AppendEvent(b []byte, ev event.Event) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(ev.Len()))
	// All() is already name-sorted, which keeps encodings canonical.
	for _, a := range ev.All() {
		v := a.Val
		b = AppendString(b, a.Name)
		switch v.Kind() {
		case value.Int:
			b = append(b, kindInt)
			b = binary.AppendVarint(b, v.Int())
		case value.Float:
			b = append(b, kindFloat)
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
		case value.String:
			b = append(b, kindString)
			b = AppendString(b, v.Str())
		case value.Bool:
			b = append(b, kindBool)
			if v.Bool() {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b
}

// AppendEventBatch appends the wire form of an event batch: a u32 event
// count followed by the events back to back. Callers publishing over the
// protocol must keep len(evs) within MaxBatchEvents and the encoded batch
// within MaxFrameSize.
func AppendEventBatch(b []byte, evs []event.Event) []byte {
	b = AppendU32(b, uint32(len(evs)))
	for _, ev := range evs {
		b = AppendEvent(b, ev)
	}
	return b
}

// ReadEventBatch consumes the wire form of an event batch. Counts beyond
// MaxBatchEvents fail with ErrBatchTooLarge; counts the remaining payload
// cannot possibly hold (every event costs at least its two-byte attribute
// count) fail with ErrMalformed before any event allocation happens.
func ReadEventBatch(b []byte) ([]event.Event, []byte, error) {
	return readEventBatch(b, nil, false)
}

// ReadEventBatchAlias is ReadEventBatch in zero-copy mode: every decoded
// event is borrowed (see ReadEventAlias) and must be Retained before the
// frame buffer is reused. evs, when non-nil, is recycled as the result's
// backing storage so a reader loop amortises the batch slice too; in the
// steady state the batch costs one allocation per event (each event's
// attribute slice) and nothing else.
func ReadEventBatchAlias(b []byte, evs []event.Event) ([]event.Event, []byte, error) {
	return readEventBatch(b, evs[:0], true)
}

func readEventBatch(b []byte, evs []event.Event, alias bool) ([]event.Event, []byte, error) {
	n, b, err := ReadU32(b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: short batch header", ErrMalformed)
	}
	if n > MaxBatchEvents {
		return nil, nil, fmt.Errorf("%w: %d events (max %d)", ErrBatchTooLarge, n, MaxBatchEvents)
	}
	if uint64(n)*2 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: batch count %d exceeds payload", ErrMalformed, n)
	}
	if cap(evs) < int(n) {
		evs = make([]event.Event, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var ev event.Event
		ev, b, err = readEvent(b, alias)
		if err != nil {
			return nil, nil, err
		}
		evs = append(evs, ev)
	}
	return evs, b, nil
}

// --- broker federation payloads ---

// AppendHello appends a MsgHello payload: protocol version and node ID.
func AppendHello(b []byte, version, nodeID uint32) []byte {
	b = AppendU32(b, version)
	return AppendU32(b, nodeID)
}

// ReadHello consumes a MsgHello payload.
func ReadHello(b []byte) (version, nodeID uint32, err error) {
	version, b, err = ReadU32(b)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: short hello version", ErrMalformed)
	}
	nodeID, _, err = ReadU32(b)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: short hello node ID", ErrMalformed)
	}
	return version, nodeID, nil
}

// AppendSubForward appends a MsgSubForward payload: subscription ID and the
// filter in sublang text form (the same textual protocol clients speak, so
// a federation of heterogeneous broker builds stays interoperable).
func AppendSubForward(b []byte, subID uint64, filter string) []byte {
	b = AppendU64(b, subID)
	return AppendString(b, filter)
}

// ReadSubForward consumes a MsgSubForward payload.
func ReadSubForward(b []byte) (subID uint64, filter string, err error) {
	subID, b, err = ReadU64(b)
	if err != nil {
		return 0, "", fmt.Errorf("%w: short sub-forward ID", ErrMalformed)
	}
	filter, _, err = ReadString(b)
	if err != nil {
		return 0, "", err
	}
	return subID, filter, nil
}

// AppendUnsubForward appends a MsgUnsubForward payload.
func AppendUnsubForward(b []byte, subID uint64) []byte { return AppendU64(b, subID) }

// ReadUnsubForward consumes a MsgUnsubForward payload.
func ReadUnsubForward(b []byte) (subID uint64, err error) {
	subID, _, err = ReadU64(b)
	if err != nil {
		return 0, fmt.Errorf("%w: short unsub-forward ID", ErrMalformed)
	}
	return subID, nil
}

// AppendEventForwardTrace appends a MsgEventForward payload: the hop count
// the event has already travelled, the event itself, and the optional
// trace suffix — a non-zero trace ID and the event's origin timestamp
// (UnixNano). A zero traceID appends nothing, which is the untraced frame
// of federation version 1 byte for byte.
//
// The suffix is the protocol's versioning seam for event forwards:
// readers deliberately ignore bytes after the event, so a version-1 peer
// that predates tracing parses a traced frame correctly (it just drops
// the trace), and a traced peer reading an untraced frame sees no suffix
// and reports traceID 0. No FederationVersion bump — the handshake is
// exact-match, and absence-by-default is what keeps mixed fleets
// interoperable. Future suffix fields must extend the same way:
// append-only, ignored when absent.
func AppendEventForwardTrace(b []byte, hops uint8, ev event.Event, traceID uint64, originNanos int64) []byte {
	b = append(b, hops)
	b = AppendEvent(b, ev)
	if traceID != 0 {
		b = AppendU64(b, traceID)
		b = AppendU64(b, uint64(originNanos))
	}
	return b
}

// ReadEventForwardTraceAlias consumes a MsgEventForward payload including
// the optional trace suffix; traceID is 0 when the sender attached none.
// The event is borrowed (see ReadEventAlias) and must be Retained before
// the frame buffer is reused.
func ReadEventForwardTraceAlias(b []byte) (hops uint8, ev event.Event, traceID uint64, originNanos int64, err error) {
	if len(b) < 1 {
		return 0, event.Event{}, 0, 0, fmt.Errorf("%w: short event-forward header", ErrMalformed)
	}
	hops = b[0]
	var rest []byte
	ev, rest, err = ReadEventAlias(b[1:])
	if err != nil {
		return 0, event.Event{}, 0, 0, err
	}
	if len(rest) >= 16 { // ≥, not ==: later suffix fields extend past ours
		traceID = binary.BigEndian.Uint64(rest)
		originNanos = int64(binary.BigEndian.Uint64(rest[8:]))
	}
	return hops, ev, traceID, originNanos, nil
}

// AppendBusy appends a MsgBusy payload: the rejected request's ID and the
// suggested retry delay in milliseconds.
func AppendBusy(b []byte, reqID uint32, retryAfterMillis uint32) []byte {
	b = AppendU32(b, reqID)
	return AppendU32(b, retryAfterMillis)
}

// ReadBusy consumes a MsgBusy payload.
func ReadBusy(b []byte) (reqID uint32, retryAfterMillis uint32, err error) {
	reqID, b, err = ReadU32(b)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: short busy request ID", ErrMalformed)
	}
	retryAfterMillis, _, err = ReadU32(b)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: short busy retry hint", ErrMalformed)
	}
	return reqID, retryAfterMillis, nil
}

// readStringBytes consumes a uvarint-length-prefixed string without
// copying: the returned bytes alias b.
func readStringBytes(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return nil, nil, fmt.Errorf("%w: bad string length", ErrMalformed)
	}
	return b[n : n+int(l)], b[n+int(l):], nil
}

// aliasString views b as a string without copying. The result is only as
// immutable as b: it must never escape the frame buffer's lifetime, which
// is exactly the borrowed-event contract enforced by Event.Retain. This is
// the single unsafe seam of the zero-copy path, confined to the transport
// layer — kernel through engine ban unsafe outright (internal/arch).
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ReadEvent consumes the wire form of an event, copying every string out
// of b: the result owns its storage. Use ReadEventAlias on hot reader
// loops and Retain what outlives the frame.
func ReadEvent(b []byte) (event.Event, []byte, error) {
	return readEvent(b, false)
}

// ReadEventAlias consumes the wire form of an event in zero-copy mode:
// string values and unknown attribute names in the result alias b. The
// event is borrowed — Event.Borrowed reports true — and must be Retained
// before b is reused or the event is shared across goroutines. Attribute
// names already in the intern table resolve to their canonical owned
// strings and cost nothing; in the steady state (known names, no string
// values kept) decode is one allocation per event.
func ReadEventAlias(b []byte) (event.Event, []byte, error) {
	return readEvent(b, true)
}

func readEvent(b []byte, alias bool) (event.Event, []byte, error) {
	if len(b) < 2 {
		return event.Event{}, nil, fmt.Errorf("%w: short event header", ErrMalformed)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	// Every attribute costs at least three bytes (one-byte name length,
	// kind tag, one value byte), so a count the payload cannot hold is
	// rejected before it sizes any allocation.
	if n*3 > len(b) {
		return event.Event{}, nil, fmt.Errorf("%w: attribute count %d exceeds payload", ErrMalformed, n)
	}
	var attrs []event.Attr
	if n > 0 {
		attrs = make([]event.Attr, 0, n)
	}
	for i := 0; i < n; i++ {
		var nb []byte
		var err error
		nb, b, err = readStringBytes(b)
		if err != nil {
			return event.Event{}, nil, err
		}
		// Lookup only — remote names never grow the symbol table. A hit
		// yields the table's canonical owned string, so known names cost
		// no copy in either mode.
		var name string
		sym, known := intern.LookupBytes(nb)
		switch {
		case known:
			name = intern.Name(sym)
		case alias:
			name = aliasString(nb)
		default:
			name = string(nb)
		}
		if len(b) < 1 {
			return event.Event{}, nil, fmt.Errorf("%w: missing value kind", ErrMalformed)
		}
		kind := b[0]
		b = b[1:]
		var val value.Value
		switch kind {
		case kindInt:
			v, vn := binary.Varint(b)
			if vn <= 0 {
				return event.Event{}, nil, fmt.Errorf("%w: bad int", ErrMalformed)
			}
			b = b[vn:]
			val = value.OfInt(v)
		case kindFloat:
			if len(b) < 8 {
				return event.Event{}, nil, fmt.Errorf("%w: short float", ErrMalformed)
			}
			val = value.OfFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
			b = b[8:]
		case kindString:
			var sb []byte
			var err error
			sb, b, err = readStringBytes(b)
			if err != nil {
				return event.Event{}, nil, err
			}
			if alias {
				val = value.OfString(aliasString(sb))
			} else {
				val = value.OfString(string(sb))
			}
		case kindBool:
			if len(b) < 1 {
				return event.Event{}, nil, fmt.Errorf("%w: short bool", ErrMalformed)
			}
			val = value.OfBool(b[0] != 0)
			b = b[1:]
		default:
			return event.Event{}, nil, fmt.Errorf("%w: unknown value kind 0x%02x", ErrMalformed, kind)
		}
		attrs = append(attrs, event.Attr{Name: name, Sym: sym, Val: val})
	}
	if alias {
		return event.FromBorrowedAttrs(attrs), b, nil
	}
	return event.FromAttrs(attrs), b, nil
}
