package netbroker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/wire"
)

// Client errors.
var (
	// ErrClientClosed is returned by operations on a closed client.
	ErrClientClosed = errors.New("netbroker: client closed")
	// ErrRemote wraps error messages returned by the broker.
	ErrRemote = errors.New("netbroker: remote error")
	// ErrBusy matches (errors.Is) publish rejections caused by broker
	// congestion; the concrete error is a *BusyError carrying the hint.
	ErrBusy = errors.New("netbroker: broker busy")
)

// BusyError is a publish rejection under backpressure: the broker is
// congested and asks the publisher to retry after the hinted delay. It
// matches ErrBusy via errors.Is.
type BusyError struct {
	// RetryAfter is the server's suggested delay before retrying.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("netbroker: broker busy, retry after %v", e.RetryAfter)
}

// Is reports ErrBusy as a match, so errors.Is(err, ErrBusy) works without
// unwrapping to the concrete type.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// busyError builds the *BusyError for a MsgBusy response payload (the
// retry-after hint in milliseconds; the request ID was already consumed).
func busyError(payload []byte) error {
	millis, _, err := wire.ReadU32(payload)
	if err != nil {
		return fmt.Errorf("%w: malformed busy reply: %v", ErrRemote, err)
	}
	return &BusyError{RetryAfter: time.Duration(millis) * time.Millisecond}
}

// DefaultSubBuffer is the per-subscription client-side event buffer.
const DefaultSubBuffer = 64

// Client is a broker connection. It is safe for concurrent use; requests
// are multiplexed over the connection by request ID.
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	pending map[uint32]chan response
	subs    map[uint64]*ClientSub
	closed  bool
	readErr error

	reqID atomic.Uint32
	wg    sync.WaitGroup
}

type response struct {
	typ     byte
	payload []byte
}

// ClientSub is a live remote subscription. Events arrive on C; events
// beyond the buffer are dropped client-side (Dropped counts them).
type ClientSub struct {
	id      uint64
	c       *Client
	ch      chan event.Event
	dropped atomic.Uint64
	once    sync.Once
}

// Dial connects to a broker server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netbroker: dial %s: %w", addr, err)
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		pending: make(map[uint32]chan response),
		subs:    make(map[uint64]*ClientSub),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	// The broker writes a burst of pushed events in one go; read it in one.
	br := bufio.NewReaderSize(c.nc, 16<<10)
	var buf []byte // reused frame buffer; payloads below alias it
	for {
		typ, payload, bufOut, err := wire.ReadFrameInto(br, buf)
		buf = bufOut
		if err != nil {
			c.failAll(err)
			return
		}
		if typ == wire.MsgEvent {
			c.dispatchEvent(payload)
			continue
		}
		reqID, rest, err := wire.ReadU32(payload)
		if err != nil {
			c.failAll(fmt.Errorf("netbroker: malformed response: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ok {
			// The waiter consumes the payload after this loop has moved
			// on to the next frame, so it must not alias the reused
			// buffer. Responses are small (counts, IDs, error strings);
			// the copy is cheap next to the round trip it concludes.
			ch <- response{typ: typ, payload: append([]byte(nil), rest...)}
		}
	}
}

func (c *Client) dispatchEvent(payload []byte) {
	subID, rest, err := wire.ReadU64(payload)
	if err != nil {
		return
	}
	// Alias decode, then Retain before the channel send: the subscriber
	// drains sub.ch at its own pace, long after the frame buffer has been
	// overwritten, so the event must own its strings by then. Retain
	// copies only the volatile ones (un-interned names, string values).
	ev, _, err := wire.ReadEventAlias(rest)
	if err != nil {
		return
	}
	ev = ev.Retain()
	c.mu.Lock()
	sub := c.subs[subID]
	c.mu.Unlock()
	if sub == nil {
		return // raced with unsubscribe
	}
	select {
	case sub.ch <- ev:
	default:
		sub.dropped.Add(1)
	}
}

// failAll wakes every pending request and closes subscription channels.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = make(map[uint32]chan response)
	subs := c.subs
	c.subs = make(map[uint64]*ClientSub)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	for _, s := range subs {
		close(s.ch)
	}
}

// gone is the error of a connection that can take no more requests. Caller
// holds c.mu.
func (c *Client) gone() error {
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClientClosed
}

// roundTrip sends one request — its ID, then whatever body appends — and
// returns the payload of the reply, which must be of type want: error and
// busy replies, and any other type, come back as errors.
func (c *Client) roundTrip(typ, want byte, body func(b []byte) []byte) ([]byte, error) {
	id := c.reqID.Add(1)
	ch := make(chan response, 1)

	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.gone()
		c.mu.Unlock()
		return nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	req := wire.AppendU32(nil, id)
	if body != nil {
		req = body(req)
	}
	c.wmu.Lock()
	err := wire.WriteFrame(c.nc, typ, req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("netbroker: send: %w", err)
	}
	resp, ok := <-ch
	switch {
	case !ok:
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, c.gone()
	case resp.typ == want:
		return resp.payload, nil
	case resp.typ == wire.MsgBusy:
		return nil, busyError(resp.payload)
	case resp.typ == wire.MsgError:
		msg, _, err := wire.ReadString(resp.payload)
		if err != nil {
			msg = "unreadable error payload"
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	return nil, fmt.Errorf("%w: unexpected response type 0x%02x", ErrRemote, resp.typ)
}

// Subscribe registers a textual subscription and returns the event stream.
func (c *Client) Subscribe(sub string) (*ClientSub, error) {
	resp, err := c.roundTrip(wire.MsgSubscribe, wire.MsgSubscribed, func(b []byte) []byte {
		return wire.AppendString(b, sub)
	})
	if err != nil {
		return nil, err
	}
	subID, _, err := wire.ReadU64(resp)
	if err != nil {
		return nil, err
	}
	s := &ClientSub{id: subID, c: c, ch: make(chan event.Event, DefaultSubBuffer)}
	c.mu.Lock()
	c.subs[subID] = s
	c.mu.Unlock()
	return s, nil
}

// ID returns the server-side subscription ID.
func (s *ClientSub) ID() uint64 { return s.id }

// C returns the event stream. It is closed on Unsubscribe or connection
// loss.
func (s *ClientSub) C() <-chan event.Event { return s.ch }

// Dropped reports events discarded because the local buffer was full.
func (s *ClientSub) Dropped() uint64 { return s.dropped.Load() }

// Unsubscribe removes the subscription at the broker and closes C.
func (s *ClientSub) Unsubscribe() error {
	var err error
	s.once.Do(func() {
		s.c.mu.Lock()
		_, live := s.c.subs[s.id]
		delete(s.c.subs, s.id)
		s.c.mu.Unlock()
		if live {
			_, err = s.c.roundTrip(wire.MsgUnsubscribe, wire.MsgOK, func(b []byte) []byte {
				return wire.AppendU64(b, s.id)
			})
			close(s.ch)
		}
	})
	return err
}

// Publish sends an event and returns the number of subscriptions it matched
// at the broker.
func (c *Client) Publish(ev event.Event) (int, error) {
	resp, err := c.roundTrip(wire.MsgPublish, wire.MsgPublished, func(b []byte) []byte {
		return wire.AppendEvent(b, ev)
	})
	if err != nil {
		return 0, err
	}
	n, _, err := wire.ReadU32(resp)
	return int(n), err
}

// PublishBatch sends a batch of events in as few frames as possible and
// returns the per-event matched-subscription counts, aligned with evs. A
// batch costs one request round trip per chunk instead of one per event,
// which is the whole point: over TCP the round trip, not the matching,
// dominates per-event publish cost.
//
// Chunking is transparent and bounded both ways: a chunk closes at
// wire.MaxBatchEvents events or when its encoded payload would exceed
// the frame size limit, whichever comes first, so batches of many large
// events split rather than fail. Only a single event too large for one
// frame is unsendable (ErrFrameTooLarge).
//
// On error the returned counts are still valid for the events already
// acknowledged — a prefix of evs — so callers can account for what the
// broker actually matched before the failure.
func (c *Client) PublishBatch(evs []event.Event) ([]int, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	// chunkBudget is what a chunk's encoded events may occupy: the frame
	// limit minus the type byte, request ID and event count.
	const chunkBudget = wire.MaxFrameSize - 1 - 4 - 4
	counts := make([]int, 0, len(evs))
	var body, scratch []byte
	n := 0
	sendChunk := func() error {
		if n == 0 {
			return nil
		}
		got, err := c.publishChunk(n, body)
		if err != nil {
			return err
		}
		counts = append(counts, got...)
		body, n = body[:0], 0
		return nil
	}
	for _, ev := range evs {
		scratch = wire.AppendEvent(scratch[:0], ev)
		if n > 0 && (n >= wire.MaxBatchEvents || len(body)+len(scratch) > chunkBudget) {
			if err := sendChunk(); err != nil {
				return counts, err
			}
		}
		body = append(body, scratch...)
		n++
	}
	if err := sendChunk(); err != nil {
		return counts, err
	}
	return counts, nil
}

// publishChunk round-trips one MsgPublishBatch frame carrying n
// pre-encoded events.
func (c *Client) publishChunk(n int, body []byte) ([]int, error) {
	resp, err := c.roundTrip(wire.MsgPublishBatch, wire.MsgPublishedBatch, func(b []byte) []byte {
		return append(wire.AppendU32(b, uint32(n)), body...)
	})
	if err != nil {
		return nil, err
	}
	got, rest, err := wire.ReadU32(resp)
	if err != nil {
		return nil, err
	}
	if int(got) != n {
		return nil, fmt.Errorf("%w: batch reply counts %d events, sent %d", ErrRemote, got, n)
	}
	counts := make([]int, got)
	for i := range counts {
		var v uint32
		v, rest, err = wire.ReadU32(rest)
		if err != nil {
			return nil, err
		}
		counts[i] = int(v)
	}
	return counts, nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wire.MsgPing, wire.MsgPong, nil)
	return err
}

// Close tears down the connection; pending requests fail and subscription
// channels close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.nc.Close()
	c.wg.Wait()
	return err
}
