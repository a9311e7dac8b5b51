package netoverlay

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/obs"
	"noncanon/internal/router"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// peerInstrument builds a per-peer instrument name with the peer's node ID
// as an embedded label, e.g. netoverlay_peer_queue_bytes{peer="3"}.
func peerInstrument(family string, nodeID uint32) string {
	return family + `{peer="` + strconv.FormatUint(uint64(nodeID), 10) + `"}`
}

// peer is one live broker-to-broker link — a TCP connection, or one end of
// a Network's net.Pipe — and the router's Sender for it. Three goroutines
// serve it: readLoop, writeLoop (after the handshake the connection's one
// writer, one Write and one deadline per drained burst) and clock
// (keepalives and eviction).
type peer struct {
	b      *Broker
	nc     net.Conn
	nodeID uint32
	link   int // router link index, assigned at attach

	// out is the spill queue the broker goroutine and the clock push into;
	// writeLoop drains it onto the connection in bursts. Flow-controlled:
	// routing never blocks on this peer's pace, and a slow peer sheds
	// events once its byte credit runs out instead of growing the queue
	// without bound.
	out *router.Queue[router.Msg]

	// fwd counts event frames written to this peer
	// (netoverlay_peer_forwarded_total{peer="N"}; survives detach so a
	// relinking peer keeps its history).
	fwd *obs.Counter

	// done closes when the link tears down, stopping the clock.
	done chan struct{}

	// Flush counts: spill queue in (pushed) and out (drained: written or
	// refused), connection frames out (written) and in (read), pings too.
	pushed, drained, written, read atomic.Uint64

	closeOnce sync.Once
}

// handshake runs the hello exchange: the dialer speaks first, the acceptor
// answers. Both directions carry the protocol version and the sender's
// node ID. Returns the peer's node ID.
func (b *Broker) handshake(nc net.Conn, dialer bool) (uint32, error) {
	deadline := time.Now().Add(handshakeTimeout)
	nc.SetDeadline(deadline)
	defer nc.SetDeadline(time.Time{})

	sendHello := func() error {
		return wire.WriteFrame(nc, wire.MsgHello, wire.AppendHello(nil, wire.FederationVersion, b.opts.NodeID))
	}
	recvHello := func() (uint32, error) {
		typ, payload, _, err := wire.ReadFrameInto(nc, nil)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		if typ != wire.MsgHello {
			return 0, fmt.Errorf("%w: unexpected frame type 0x%02x", ErrHandshake, typ)
		}
		ver, peerID, err := wire.ReadHello(payload)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		if ver != wire.FederationVersion {
			return 0, fmt.Errorf("%w: protocol version %d, want %d", ErrHandshake, ver, wire.FederationVersion)
		}
		if peerID == b.opts.NodeID {
			return 0, fmt.Errorf("%w: peer claims our own node ID %d (self-link?)", ErrHandshake, peerID)
		}
		return peerID, nil
	}

	if dialer {
		if err := sendHello(); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		return recvHello()
	}
	peerID, err := recvHello()
	if err != nil {
		return 0, err
	}
	if err := sendHello(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return peerID, nil
}

// attach makes a handshaken connection a live link. The broker goroutine
// claims the peer's node ID (vetoing duplicate links), adds the peer as a
// router link — flooding existing routes onto its queue — and starts its
// goroutines, all inside one inbox message: Flush never sees a link whose
// route flood is not yet counted. Blocks until the link is live.
func (b *Broker) attach(nc net.Conn, peerID uint32) error {
	p := &peer{
		b:      b,
		nc:     nc,
		nodeID: peerID,
		out:    router.NewFlowQueue(router.EstimateMsgBytes, b.opts.LinkHighWater, 0),
		done:   make(chan struct{}),
	}
	attached := make(chan error, 1)
	ok := b.enqueue(inMsg{ctl: func() {
		b.mu.Lock()
		if b.closed.Load() { // Close closes nc: it is still pending
			b.mu.Unlock()
			attached <- ErrClosed
			return
		}
		delete(b.pending, nc)
		if _, dup := b.peers[peerID]; dup {
			b.mu.Unlock()
			nc.Close()
			attached <- fmt.Errorf("%w: already linked to node %d (duplicate link would close a cycle)", ErrHandshake, peerID)
			return
		}
		b.peers[peerID] = p
		b.mu.Unlock()

		// Per-peer instruments. The counter is get-or-create: a peer that
		// detaches and relinks resumes its own series. The function
		// instruments are views over this link's spill queue; registering
		// again replaces a stale closure left by a previous incarnation,
		// and detach removes them.
		p.fwd = b.reg.Counter(peerInstrument("netoverlay_peer_forwarded_total", peerID))
		b.reg.GaugeFunc(peerInstrument("netoverlay_peer_queue_bytes", peerID), func() int64 {
			return int64(p.out.Stats().Bytes)
		})
		b.reg.CounterFunc(peerInstrument("netoverlay_peer_shed_total", peerID), func() uint64 {
			return p.out.Stats().Shed
		})
		p.link = b.rt.AddLink(p)
		b.wg.Add(3)
		go p.readLoop()
		go p.writeLoop()
		go p.clock()
		attached <- nil
	}})
	if !ok {
		return ErrClosed // nc is still pending: Close closes it
	}
	select {
	case err := <-attached:
		if err == nil {
			b.opts.Logf("netoverlay: node %d: linked to node %d (%s)", b.opts.NodeID, peerID, nc.RemoteAddr())
		}
		return err
	case <-b.quit:
		return ErrClosed
	}
}

// detach tears the link down: the connection and queue close, and the
// broker goroutine retracts every route learned through it so the rest of
// the federation stops routing events this way. A nil reason is Close's:
// nothing is logged.
func (p *peer) detach(reason error) {
	p.closeOnce.Do(func() {
		close(p.done)
		p.nc.Close()
		qs := p.out.Stats()
		p.out.Close()
		if reason != nil {
			p.b.opts.Logf("netoverlay: node %d: peer %d detached: %v", p.b.opts.NodeID, p.nodeID, reason)
		}
		// Route retraction runs on the broker goroutine, queued before the
		// link leaves the peer table so Flush never sees the link gone and
		// its retraction uncounted. Skipped when the whole broker is going
		// down: Close is tearing the routing table down, and would race it.
		if !p.b.closed.Load() {
			p.b.enqueue(inMsg{ctl: func() { p.b.rt.RemoveLink(p.link) }})
		}
		p.b.mu.Lock()
		delete(p.b.peers, p.nodeID)
		// Fold the dead queue's cumulative counters into the broker so
		// Stats stays monotonic across detaches.
		p.b.detachedShed += qs.Shed
		p.b.detachedSpilled += qs.SpilledBytes
		p.b.mu.Unlock()
		// Drop the per-peer queue views: their closures watch a queue that
		// just died. The plain counters (forwarded, evicted) stay — they
		// are history, and Stats keeps counting what this link shed via
		// detachedShed above.
		p.b.reg.Unregister(peerInstrument("netoverlay_peer_queue_bytes", p.nodeID))
		p.b.reg.Unregister(peerInstrument("netoverlay_peer_shed_total", p.nodeID))
	})
}

// readLoop decodes inbound frames into broker-inbox messages. Blocking on a
// full inbox is harmless: this goroutine serves only this link, and the
// broker goroutine (which drains the inbox) never waits on it.
func (p *peer) readLoop() {
	defer p.b.wg.Done()
	// Small on purpose: every link endpoint of a node holds one for life.
	br := bufio.NewReaderSize(p.nc, 4<<10)
	var buf []byte // reused frame buffer; payloads below alias it
	for {
		// A half-open peer (no FIN — machine death, pulled cable, frozen
		// proxy) never errors a plain read. The idle deadline turns that
		// silence into a detach so its learned routes get retracted;
		// the far clock's pings keep a live-but-quiet peer under it. It is
		// renewed only before a read that can block: a frame already
		// buffered is decoded without touching the connection.
		if p.b.opts.ReadIdleTimeout > 0 && !wire.FrameBuffered(br) {
			p.nc.SetReadDeadline(time.Now().Add(p.b.opts.ReadIdleTimeout))
		}
		typ, payload, bufOut, err := wire.ReadFrameInto(br, buf)
		buf = bufOut
		if err != nil {
			p.detach(err)
			return
		}
		switch typ {
		case wire.MsgSubForward:
			subID, filter, err := wire.ReadSubForward(payload)
			if err != nil {
				p.detach(err)
				return
			}
			if expr, err := sublang.Parse(filter); err != nil {
				// A filter we cannot parse would silently black-hole a
				// subscriber; count it loudly and keep the link (the peer's
				// other traffic is fine).
				p.b.anomaly(fmt.Errorf("netoverlay: unparseable filter from node %d for sub %d: %w", p.nodeID, subID, err))
			} else if !p.b.enqueue(inMsg{m: router.Msg{Kind: router.Sub, SubID: subID, Expr: expr}, from: p.link}) {
				return
			}
		case wire.MsgUnsubForward:
			subID, err := wire.ReadUnsubForward(payload)
			if err != nil {
				p.detach(err)
				return
			}
			if !p.b.enqueue(inMsg{m: router.Msg{Kind: router.Unsub, SubID: subID}, from: p.link}) {
				return
			}
		case wire.MsgEventForward:
			// Alias decode saves the per-attribute copies, then Retain pays
			// for only the volatile strings before the event crosses into
			// the broker inbox — an asynchronous hand-off that outlives
			// this loop's frame buffer.
			hops, ev, traceID, originNanos, err := wire.ReadEventForwardTraceAlias(payload)
			if err != nil {
				p.detach(err)
				return
			}
			m := router.Msg{Kind: router.Event, Ev: ev.Retain(), Hops: int(hops)}
			if traceID != 0 {
				// A sampled event: record this hop (latency is arrival
				// minus the origin stamp — one-way, so it includes clock
				// offset between machines; on one machine it is honest) and
				// keep the trace on the message so any further forward
				// carries it to the next broker.
				now := time.Now().UnixNano()
				p.b.hopLatency.Observe(time.Duration(now - originNanos))
				p.b.ring.Record(obs.TraceRecord{
					TraceID:      traceID,
					Node:         p.b.nodeName,
					Hops:         int(hops),
					OriginNanos:  originNanos,
					ArrivalNanos: now,
					LatencyNanos: now - originNanos,
				})
				m.Trace = router.Trace{ID: traceID, OriginNanos: originNanos}
			}
			if !p.b.enqueue(inMsg{m: m, from: p.link}) {
				return
			}
		case wire.MsgPing:
			// Tolerated for liveness probes; no reply needed on peer links.
		default:
			p.detach(fmt.Errorf("netoverlay: unexpected frame type 0x%02x from node %d", typ, p.nodeID))
			return
		}
		p.read.Add(1)
	}
}

// Send queues one routing message for writeLoop: events are offered and
// shed while the link is congested, control messages always enqueue (see
// router.EnqueueMsg). It is the router's Sender for this link, and the
// clock queues pings through it too.
func (p *peer) Send(m router.Msg) {
	// Counted before the push: the writer may drain the message before
	// EnqueueMsg even returns.
	p.pushed.Add(1)
	if !router.EnqueueMsg(p.out, m) {
		p.drained.Add(1)
	}
}

// writeLoop drains the spill queue onto the connection in bursts. It
// blocks for one message, takes whatever else is already queued, up to
// burstBytes of frames encoded in place into one buffer, and hands the
// burst to the socket with one deadline and one Write. A burst is byte for
// byte the frames written one at a time, so peers cannot tell the
// difference. Between bursts the writer keeps the buffer while the queue
// stays busy and at most maxSpare of it once the queue runs dry, so a
// link's outbound memory is its queue (LinkHighWater) plus at most one
// burst. After the handshake it is the only writer on the connection.
func (p *peer) writeLoop() {
	defer p.b.wg.Done()
	var buf []byte
	for {
		m, ok := p.out.TryPop()
		if !ok {
			if cap(buf) > maxSpare {
				buf = nil
			}
			if m, ok = p.out.Pop(); !ok {
				return
			}
		}
		buf = buf[:0]
		var frames, events uint64
		for {
			var err error
			if buf, err = appendFrame(buf, m); err != nil {
				p.detach(err)
				return
			}
			frames++
			if m.Kind == router.Event {
				events++
			}
			if len(buf) >= burstBytes {
				break
			}
			if m, ok = p.out.TryPop(); !ok {
				break
			}
		}
		p.fwd.Add(events)
		p.written.Add(frames)
		p.b.peerWrites.Inc()
		p.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := p.nc.Write(buf); err != nil {
			p.detach(err)
			return
		}
		p.drained.Add(frames)
	}
}

// appendFrame appends m's frame to b, encoded in place; the zero Msg is
// the clock's keepalive. A frame over wire.MaxFrameSize fails, leaving b as
// it was.
func appendFrame(b []byte, m router.Msg) ([]byte, error) {
	at := len(b)
	switch m.Kind {
	case router.Sub:
		b = wire.AppendSubForward(wire.BeginFrame(b, wire.MsgSubForward), m.SubID, m.Expr.String())
	case router.Unsub:
		b = wire.AppendUnsubForward(wire.BeginFrame(b, wire.MsgUnsubForward), m.SubID)
	case router.Event:
		// Untraced events (Trace.ID zero) encode byte-identically to the
		// pre-trace format, so old peers decode them unchanged.
		b = wire.AppendEventForwardTrace(wire.BeginFrame(b, wire.MsgEventForward), uint8(m.Hops), m.Ev, m.Trace.ID, m.Trace.OriginNanos)
	default:
		b = wire.BeginFrame(b, wire.MsgPing)
	}
	return wire.EndFrame(b, at)
}

// clock is the link's timer. Every PingInterval it queues a keepalive, so
// the far side's idle-read deadline only trips on a peer that is actually
// unreachable. Every CongestionDeadline/4, clamped to [10 ms, 1 s], it
// checks the spill queue, and evicts the link once it has stayed congested
// past the deadline. A negative interval disables its half.
func (p *peer) clock() {
	defer p.b.wg.Done()
	var ping, check <-chan time.Time
	if d := p.b.opts.PingInterval; d > 0 {
		t := time.NewTicker(d)
		defer t.Stop()
		ping = t.C
	}
	deadline := p.b.opts.CongestionDeadline
	if deadline > 0 {
		t := time.NewTicker(min(max(deadline/4, 10*time.Millisecond), time.Second))
		defer t.Stop()
		check = t.C
	}
	for {
		select {
		case <-ping:
			p.Send(router.Msg{})
		case <-check:
			if p.out.CongestedFor() > deadline {
				p.detach(fmt.Errorf("netoverlay: peer %d congested past %v, evicting (queue %+v)",
					p.nodeID, deadline, p.out.Stats()))
				// Counted after detach so an observed eviction implies the
				// peer is already out of the peer table, and per peer
				// first so an eviction seen in Stats().Evicted implies its
				// per-peer count. The per-peer counter survives the detach
				// (it is history, not a view), and continues counting if
				// the same peer relinks.
				p.b.reg.Counter(peerInstrument("netoverlay_peer_evicted_total", p.nodeID)).Inc()
				p.b.evicted.Inc()
				return
			}
		case <-p.done:
			return
		}
	}
}
