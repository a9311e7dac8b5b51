package netoverlay

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
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

// peer is one live broker-to-broker TCP link.
type peer struct {
	b      *Broker
	nc     net.Conn
	nodeID uint32
	link   int // router link index, assigned at attach

	// out is the spill queue the broker goroutine pushes forwards into;
	// writeLoop drains it onto the connection. Flow-controlled: routing
	// never blocks on this peer's pace, and a slow peer sheds events once
	// its byte credit runs out instead of growing the queue without bound.
	out *router.Queue[router.Msg]

	// wmu serializes frame writes between writeLoop and pingLoop.
	wmu sync.Mutex

	// fwd counts event frames written to this peer
	// (netoverlay_peer_forwarded_total{peer="N"}; survives detach so a
	// relinking peer keeps its history).
	fwd *obs.Counter

	// done closes when the link tears down (detach or shutdown), stopping
	// the ping loop.
	done chan struct{}

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

// attach registers a handshaken connection as a live link: it claims the
// peer's node ID (vetoing duplicate links), asks the broker goroutine for a
// router link, starts the reader and writer and floods existing routes over
// the fresh link. Blocks until the link is live.
func (b *Broker) attach(nc net.Conn, peerID uint32) error {
	p := &peer{
		b:      b,
		nc:     nc,
		nodeID: peerID,
		out:    router.NewFlowQueue(router.EstimateMsgBytes, b.opts.LinkHighWater, 0),
		done:   make(chan struct{}),
	}
	b.mu.Lock()
	delete(b.pending, nc)
	if b.closed.Load() {
		b.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	if _, dup := b.peers[peerID]; dup {
		b.mu.Unlock()
		nc.Close()
		return fmt.Errorf("%w: already linked to node %d (duplicate link would close a cycle)", ErrHandshake, peerID)
	}
	b.peers[peerID] = p
	b.mu.Unlock()

	// Per-peer instruments. The counter is get-or-create: a peer that
	// detaches and relinks resumes its own series. The function
	// instruments are views over this link's spill queue; registering
	// again replaces a stale closure left by a previous incarnation, and
	// detach removes them.
	p.fwd = b.reg.Counter(peerInstrument("netoverlay_peer_forwarded_total", peerID))
	b.reg.GaugeFunc(peerInstrument("netoverlay_peer_queue_bytes", peerID), func() int64 {
		return int64(p.out.Stats().Bytes)
	})
	b.reg.CounterFunc(peerInstrument("netoverlay_peer_shed_total", peerID), func() uint64 {
		return p.out.Stats().Shed
	})

	attached := make(chan struct{})
	ok := b.enqueue(inMsg{ctl: func() {
		// b.links and the router's links grow in step, so the link's index
		// is known before AddLink floods the known routes over it.
		p.link = b.rt.NumLinks()
		b.links = append(b.links, p)
		b.wg.Add(2)
		go p.readLoop()
		go p.writeLoop()
		if b.opts.PingInterval > 0 {
			b.wg.Add(1)
			go p.pingLoop()
		}
		b.rt.AddLink()
		close(attached)
	}})
	if !ok {
		b.mu.Lock()
		delete(b.peers, peerID)
		b.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	select {
	case <-attached:
		b.opts.Logf("netoverlay: node %d: linked to node %d (%s)", b.opts.NodeID, peerID, nc.RemoteAddr())
		return nil
	case <-b.quit:
		return ErrClosed
	}
}

// detach tears the link down: the connection and queue close, and the
// broker goroutine retracts every route learned through it so the rest of
// the federation stops routing events this way.
func (p *peer) detach(reason error) {
	p.closeOnce.Do(func() {
		close(p.done)
		p.nc.Close()
		qs := p.out.Stats()
		p.out.Close()
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
		if reason != nil {
			p.b.opts.Logf("netoverlay: node %d: peer %d detached: %v", p.b.opts.NodeID, p.nodeID, reason)
		}
		// Route retraction must run on the broker goroutine; skip it when
		// the whole broker is going down anyway — Close is already tearing
		// the routing table down, and the enqueue would race with it.
		if !p.b.closed.Load() {
			p.b.enqueue(inMsg{ctl: func() {
				p.b.links[p.link] = nil
				p.b.rt.RemoveLink(p.link)
			}})
		}
	})
}

// shutdown closes the link without the route retraction dance; Close uses
// it when the whole broker is stopping.
func (p *peer) shutdown() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.nc.Close()
		p.out.Close()
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
		// pingLoop traffic keeps a live-but-quiet peer under the deadline.
		if p.b.opts.ReadIdleTimeout > 0 {
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
			expr, err := sublang.Parse(filter)
			if err != nil {
				// A filter we cannot parse would silently black-hole a
				// subscriber; count it loudly and keep the link (the peer's
				// other traffic is fine).
				p.b.anomaly(fmt.Errorf("netoverlay: unparseable filter from node %d for sub %d: %w", p.nodeID, subID, err))
				continue
			}
			if !p.b.enqueue(inMsg{m: router.Msg{Kind: router.Sub, SubID: subID, Expr: expr}, from: p.link}) {
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
	}
}

// writeLoop drains the spill queue onto the connection, one frame per
// routing message.
func (p *peer) writeLoop() {
	defer p.b.wg.Done()
	var buf []byte
	for {
		m, ok := p.out.Pop()
		if !ok {
			return
		}
		buf = buf[:0]
		var typ byte
		switch m.Kind {
		case router.Sub:
			typ = wire.MsgSubForward
			buf = wire.AppendSubForward(buf, m.SubID, m.Expr.String())
		case router.Unsub:
			typ = wire.MsgUnsubForward
			buf = wire.AppendUnsubForward(buf, m.SubID)
		case router.Event:
			typ = wire.MsgEventForward
			// Untraced events (Trace.ID zero) encode byte-identically to
			// the pre-trace format, so old peers decode them unchanged.
			buf = wire.AppendEventForwardTrace(buf, uint8(m.Hops), m.Ev, m.Trace.ID, m.Trace.OriginNanos)
			p.fwd.Inc()
		default:
			continue
		}
		if err := p.writeFrame(typ, buf); err != nil {
			p.detach(err)
			return
		}
		p.b.activity.Add(1)
	}
}

// writeFrame sends one frame under the write mutex, serializing writeLoop
// and pingLoop on the shared connection.
func (p *peer) writeFrame(typ byte, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return wire.WriteFrame(p.nc, typ, payload)
}

// pingLoop keeps the link's read traffic flowing both ways: each side's
// periodic ping resets the other side's idle-read deadline, so only a peer
// that is actually unreachable trips it.
func (p *peer) pingLoop() {
	defer p.b.wg.Done()
	t := time.NewTicker(p.b.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := p.writeFrame(wire.MsgPing, nil); err != nil {
				p.detach(fmt.Errorf("netoverlay: ping to node %d failed: %w", p.nodeID, err))
				return
			}
		case <-p.done:
			return
		}
	}
}
