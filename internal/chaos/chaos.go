// Package chaos provides fault-injection plumbing for transport tests: a
// stallable TCP proxy that simulates slow, frozen and half-open peers.
//
// The proxy is deliberately dumb — it relays bytes and, when stalled,
// simply stops, keeping both TCP connections open but silent. That is
// exactly what a frozen process, a pulled cable or a dead machine without
// FIN looks like to the brokers on either side, which is the failure mode
// flow control and liveness probing exist for.
package chaos

import (
	"fmt"
	"net"
	"sync"
)

// Proxy is a loopback TCP relay between clients and a target address.
// Stall freezes relaying in both directions without closing connections;
// Resume unfreezes; Sever drops live proxied connections (with FIN) while
// keeping the listener; Close tears everything down.
type Proxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	gate    chan struct{} // closed while running; fresh open chan while stalled
	stalled bool
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and relays every accepted
// connection to target.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	open := make(chan struct{})
	close(open)
	p := &Proxy{
		ln:     ln,
		target: target,
		conns:  make(map[net.Conn]struct{}),
		gate:   open,
		done:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; dial this instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			nc.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			up.Close()
			return
		}
		p.conns[nc] = struct{}{}
		p.conns[up] = struct{}{}
		p.wg.Add(2)
		p.mu.Unlock()
		go p.relay(up, nc)
		go p.relay(nc, up)
	}
}

// relay copies src to dst, pausing at the gate while the proxy is stalled.
// The pause sits between read and write, so in-flight bytes are delivered
// after Resume, not lost — a stall delays traffic, a Sever drops it.
func (p *Proxy) relay(dst, src net.Conn) {
	defer p.wg.Done()
	defer p.drop(dst, src)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			gate := p.gate
			p.mu.Unlock()
			select {
			case <-gate:
			case <-p.done:
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// drop closes one proxied connection pair and forgets it.
func (p *Proxy) drop(a, b net.Conn) {
	a.Close()
	b.Close()
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
}

// Stall freezes the relay: connections stay open, no byte moves in either
// direction. To each side the peer looks alive but silent — the half-open
// failure mode. Idempotent.
func (p *Proxy) Stall() {
	p.mu.Lock()
	if !p.stalled && !p.closed {
		p.stalled = true
		p.gate = make(chan struct{})
	}
	p.mu.Unlock()
}

// Resume unfreezes a stalled relay; buffered in-flight bytes flow again.
// Idempotent.
func (p *Proxy) Resume() {
	p.mu.Lock()
	if p.stalled {
		p.stalled = false
		close(p.gate)
	}
	p.mu.Unlock()
}

// Stalled reports whether the relay is currently frozen.
func (p *Proxy) Stalled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stalled
}

// Sever closes every live proxied connection (the peers see FIN/RST) but
// keeps the listener, so new connections still relay — a link partition,
// not a proxy death.
func (p *Proxy) Sever() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for nc := range p.conns {
		conns = append(conns, nc)
	}
	p.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
}

// Close stops the listener and all relaying. Idempotent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	err := p.ln.Close()
	p.Sever()
	p.wg.Wait()
	return err
}
