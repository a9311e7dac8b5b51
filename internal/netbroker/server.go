// Package netbroker exposes the local broker over TCP using the wire
// protocol: clients subscribe with textual subscriptions, publish events and
// receive matched events as asynchronous pushes.
//
// Each connection is served by its own goroutine, and the broker's Publish
// path runs entirely under read locks, so publications from different
// clients are matched concurrently — the server never funnels matching
// through an exclusive engine lock.
//
// Each connection is also one broker.Sink with one writer at a time: see
// conn.
package netbroker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netbroker: server closed")

// writeTimeout bounds how long a client that does not read can hold its
// connection's writer before the connection is dropped.
const writeTimeout = 10 * time.Second

// readBuffer sizes a connection's buffered reader: pipelined requests
// arrive in one read, larger frames pass it by. maxSpare is the largest
// written buffer a connection keeps for its next swap.
const (
	readBuffer = 4 << 10
	maxSpare   = 64 << 10
)

// ServerOptions configures a broker server.
type ServerOptions struct {
	// Broker configures the embedded matching broker.
	Broker broker.Options
	// RetryAfter enables publish backpressure: while the embedded broker
	// reports Congested, MsgPublish/MsgPublishBatch requests are rejected
	// with a MsgBusy reply hinting this retry delay instead of being
	// matched and silently dropped per-subscriber. Zero disables the
	// behaviour (the pre-flow-control posture).
	RetryAfter time.Duration
	// Logf receives connection-level diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Server serves the broker protocol over a listener.
type Server struct {
	opts ServerOptions
	br   *broker.Broker

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Writer-side instruments, moved once per write; frames ÷ flushes is
	// the coalescing factor.
	connections *obs.Gauge
	frames      *obs.Counter
	flushes     *obs.Counter
	bytes       *obs.Counter
	refused     *obs.Counter
}

// NewServer builds a server with an embedded broker.
func NewServer(opts ServerOptions) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	reg := opts.Broker.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		opts:        opts,
		br:          broker.New(opts.Broker),
		conns:       make(map[*conn]struct{}),
		connections: reg.Gauge("netbroker_connections"),
		frames:      reg.Counter("netbroker_frames_written_total"),
		flushes:     reg.Counter("netbroker_flushes_total"),
		bytes:       reg.Counter("netbroker_bytes_written_total"),
		refused:     reg.Counter("netbroker_delivery_refused_total"),
	}
}

// Broker exposes the embedded broker (e.g. for local subscriptions beside
// the network interface).
func (s *Server) Broker() *broker.Broker { return s.br }

// Serve accepts connections until Close. It always returns a non-nil error;
// after Close the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("netbroker: accept: %w", err)
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.connections.Add(1)
			c.serve()
			s.connections.Add(-1)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netbroker: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Close stops accepting, disconnects clients, shuts the broker down and
// waits for connection goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
	return s.br.Close()
}

// conn is one client connection and the sink of every subscription made on
// it. Everything it sends waits in out: publishers append matched events
// (Deliver), its reader appends replies, and whoever holds wmu swaps out
// away and writes it whole, under one deadline, until nothing waits — so a
// burst of deliveries costs a few writes and one wake-up, and frames leave
// in the order they were appended. The reader flushes inline once it has no
// further request buffered; a publisher may not wait on a socket, so it
// starts a goroutine, at most one at a time.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	sink *broker.Outlet

	wmu sync.Mutex // the writer role

	mu       sync.Mutex
	out      []byte // frames not yet handed to the socket
	spare    []byte // the buffer last written, for the next swap
	frames   int    // frames in out
	events   int    // deliveries among them
	inflight int    // deliveries in the buffer being written
	kicked   bool   // a started writer has yet to find out empty
	closed   bool   // the socket failed or the reader is gone
	// The event body last encoded into out, for the next delivery of the
	// same event: events are immutable, so the same attribute array is the
	// same bytes, and holding body keeps the array from being recycled for
	// another event. A swap forgets it.
	body           *event.Attr
	bodyLen        int
	bodyAt, bodyTo int

	writers sync.WaitGroup // started writers
	kick    func()         // bound once, so starting a writer allocates nothing

	// Reader-loop state, touched only by serve's goroutine.
	nextSub uint64 // connection-local subscription handle source
	subs    map[uint64]*broker.Subscription
	rbuf    []byte // reused frame buffer
	rep     []byte // reply scratch
	evBatch []event.Event
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, br: bufio.NewReaderSize(nc, readBuffer), subs: make(map[uint64]*broker.Subscription)}
	c.sink = s.br.Attach(c)
	c.kick = func() { c.flush(); c.writers.Done() }
	return c
}

func (c *conn) serve() {
	defer c.cleanup()
	for {
		// The frame buffer is reused across iterations: handle must not
		// keep payload (or anything aliasing it) past its return. Events go
		// through broker.Publish, whose sinks encode or Retain inside it.
		typ, payload, buf, err := wire.ReadFrameInto(c.br, c.rbuf)
		c.rbuf = buf
		if err != nil {
			return // disconnect (clean EOF or protocol error)
		}
		if err := c.handle(typ, payload); err != nil {
			c.srv.opts.Logf("netbroker: %s: %v", c.nc.RemoteAddr(), err)
			return
		}
		// Replies wait for the next request's if that is already here; the
		// read buffer's size bounds how many can pile up.
		if !wire.FrameBuffered(c.br) {
			c.flush()
		}
	}
}

func (c *conn) cleanup() {
	c.nc.Close()
	for _, sub := range c.subs {
		if err := sub.Unsubscribe(); err != nil {
			c.srv.opts.Logf("netbroker: cleanup unsubscribe: %v", err)
		}
	}
	c.mu.Lock()
	c.shut()
	c.mu.Unlock()
	c.writers.Wait()
}

// shut marks the connection dead: Deliver refuses from here on, and the
// deliveries still waiting are counted dropped. Caller holds c.mu.
func (c *conn) shut() {
	if !c.closed {
		c.closed = true
		c.sink.Lost(c.events)
		c.out, c.frames, c.events = nil, 0, 0
	}
}

// Deliver appends one MsgEvent frame for the subscription the client knows
// as handle. It runs inside Publish: the body is encoded here, once per run
// of deliveries of one event and copied for the rest, so nothing borrowed
// outlives the call, and the socket is never touched.
//
//nclint:hotpath
func (c *conn) Deliver(handle uint64, ev event.Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if c.events+c.inflight >= c.sink.Capacity() {
		c.sink.Refuse()
		c.srv.refused.Inc()
		return false
	}
	at := len(c.out)
	c.out = wire.AppendU64(wire.BeginFrame(c.out, wire.MsgEvent), handle)
	if attrs := ev.All(); len(attrs) > 0 && &attrs[0] == c.body && len(attrs) == c.bodyLen {
		c.out = append(c.out, c.out[c.bodyAt:c.bodyTo]...)
	} else {
		c.bodyAt, c.body, c.bodyLen = len(c.out), nil, len(attrs)
		c.out = wire.AppendEvent(c.out, ev)
		if c.bodyTo = len(c.out); len(attrs) > 0 {
			c.body = &attrs[0]
		}
	}
	var err error
	if c.out, err = wire.EndFrame(c.out, at); err != nil {
		c.body = nil
		return false // an event no frame can carry
	}
	c.frames++
	c.events++
	if !c.kicked {
		c.kicked = true
		c.writers.Add(1)
		go c.kick()
	}
	return true
}

// flush takes the writer role and hands everything waiting to the socket,
// one Write and one deadline per round, until nothing waits. Emptiness is
// observed under the lock appends happen under, so a frame appended behind
// a kicked writer is never left without one.
//
//nclint:hotpath
func (c *conn) flush() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.out) > 0 {
		buf, frames := c.out, c.frames
		c.out, c.spare, c.body = c.spare[:0], nil, nil
		c.inflight, c.frames, c.events = c.events, 0, 0
		c.mu.Unlock()
		err := c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err == nil {
			_, err = c.nc.Write(buf)
		}
		c.srv.flushes.Inc()
		c.srv.frames.Add(uint64(frames))
		c.srv.bytes.Add(uint64(len(buf)))
		c.mu.Lock()
		if err != nil {
			c.srv.opts.Logf("netbroker: write to %s: %v", c.nc.RemoteAddr(), err)
			c.sink.Lost(c.inflight)
			c.shut()
			c.nc.Close() // the reader will clean up
		} else {
			c.sink.Sent(c.inflight, c.events)
		}
		if c.inflight = 0; cap(buf) <= maxSpare {
			c.spare = buf
		}
	}
	c.kicked = false
}

// reply appends one response frame for serve to flush.
func (c *conn) reply(typ byte, payload []byte) {
	c.rep = payload[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	var err error
	if c.out, err = wire.EndFrame(append(wire.BeginFrame(c.out, typ), payload...), len(c.out)); err != nil {
		c.srv.opts.Logf("netbroker: reply to %s: %v", c.nc.RemoteAddr(), err)
		c.shut()
		c.nc.Close()
		return
	}
	c.frames++
}

func (c *conn) replyError(reqID uint32, msg string) {
	c.reply(wire.MsgError, wire.AppendString(wire.AppendU32(c.rep, reqID), msg))
}

func (c *conn) handle(typ byte, payload []byte) error {
	reqID, rest, err := wire.ReadU32(payload)
	if err != nil {
		return fmt.Errorf("request without id: %w", err)
	}
	switch typ {
	case wire.MsgSubscribe:
		c.handleSubscribe(reqID, rest)
	case wire.MsgUnsubscribe:
		c.handleUnsubscribe(reqID, rest)
	case wire.MsgPublish:
		c.handlePublish(reqID, rest)
	case wire.MsgPublishBatch:
		c.handlePublishBatch(reqID, rest)
	case wire.MsgPing:
		c.reply(wire.MsgPong, wire.AppendU32(c.rep, reqID))
	default:
		c.replyError(reqID, fmt.Sprintf("unknown message type 0x%02x", typ))
	}
	return nil
}

func (c *conn) handleSubscribe(reqID uint32, rest []byte) {
	text, _, err := wire.ReadString(rest)
	if err != nil {
		c.replyError(reqID, "malformed subscribe: "+err.Error())
		return
	}
	expr, err := sublang.Parse(text)
	if err != nil {
		c.replyError(reqID, err.Error())
		return
	}
	// Subscriptions are identified on the wire by a connection-local
	// handle, never by the engine ID: with broker aggregation two
	// identical filters on one connection share an engine entry, and the
	// handle keeps them separately addressable.
	c.nextSub++
	sub, err := c.sink.Subscribe(expr, c.nextSub)
	if err != nil {
		c.replyError(reqID, err.Error())
		return
	}
	c.subs[c.nextSub] = sub
	c.reply(wire.MsgSubscribed, wire.AppendU64(wire.AppendU32(c.rep, reqID), c.nextSub))
}

func (c *conn) handleUnsubscribe(reqID uint32, rest []byte) {
	id, _, err := wire.ReadU64(rest)
	if err != nil {
		c.replyError(reqID, "malformed unsubscribe: "+err.Error())
		return
	}
	sub, ok := c.subs[id]
	if !ok {
		c.replyError(reqID, fmt.Sprintf("unknown subscription %d", id))
		return
	}
	delete(c.subs, id)
	if err := sub.Unsubscribe(); err != nil {
		c.replyError(reqID, err.Error())
		return
	}
	c.reply(wire.MsgOK, wire.AppendU32(c.rep, reqID))
}

// busy sends the MsgBusy backpressure reply when the server has RetryAfter
// configured and the broker is congested, reporting whether it did so (in
// which case the publish request must not proceed).
func (c *conn) busy(reqID uint32) bool {
	if c.srv.opts.RetryAfter <= 0 || !c.srv.br.Congested() {
		return false
	}
	millis := max(uint32(c.srv.opts.RetryAfter/time.Millisecond), 1)
	c.reply(wire.MsgBusy, wire.AppendBusy(c.rep, reqID, millis))
	return true
}

func (c *conn) handlePublish(reqID uint32, rest []byte) {
	// Alias decode: the event borrows the reader-loop frame buffer, which
	// stays untouched until the next ReadFrameInto — after this handler
	// returns — and Publish's sinks encode or Retain inside the call.
	ev, _, err := wire.ReadEventAlias(rest)
	if err != nil {
		c.replyError(reqID, "malformed event: "+err.Error())
		return
	}
	if c.busy(reqID) {
		return
	}
	n, err := c.srv.br.Publish(ev)
	if err != nil {
		c.replyError(reqID, err.Error())
		return
	}
	c.reply(wire.MsgPublished, wire.AppendU32(wire.AppendU32(c.rep, reqID), uint32(n)))
}

// handlePublishBatch feeds a whole event batch to the broker in one
// PublishBatch call and replies with the per-event match counts. Batches
// the decoder rejects — malformed bytes or more than wire.MaxBatchEvents
// events — earn an error reply, not a disconnect: the frame itself was
// well-delimited, so the connection state is intact.
func (c *conn) handlePublishBatch(reqID uint32, rest []byte) {
	// Alias decode into the recycled batch slice; see handlePublish.
	evs, _, err := wire.ReadEventBatchAlias(rest, c.evBatch)
	if err != nil {
		c.replyError(reqID, "malformed batch: "+err.Error())
		return
	}
	c.evBatch = evs[:0]
	if c.busy(reqID) {
		return
	}
	counts, err := c.srv.br.PublishBatch(evs)
	if err != nil {
		c.replyError(reqID, err.Error())
		return
	}
	resp := wire.AppendU32(wire.AppendU32(c.rep, reqID), uint32(len(counts)))
	for _, n := range counts {
		resp = wire.AppendU32(resp, uint32(n))
	}
	c.reply(wire.MsgPublishedBatch, resp)
}
