package netoverlay

import (
	"errors"
	"fmt"
	"net"
)

// ErrNotATree rejects a Network topology that is not a connected acyclic
// graph.
var ErrNotATree = errors.New("netoverlay: topology must be a connected acyclic graph")

// Network is an in-process federation: n ordinary Brokers whose tree links
// are net.Pipe pairs, each linked through the same handshake, reader and
// writer as a TCP link. Node i has node ID i+1 and a private metrics
// registry; drive it through Node(i). Subscriptions made at a node can
// only be retracted there.
type Network struct {
	nodes []*Broker
}

// NewNetwork builds n brokers linked by the given undirected edges, which
// must form a tree (n-1 edges, no cycles; see LineEdges, StarEdges and
// TreeEdges). Every broker runs with opts, except that the Network assigns
// NodeID and the registry, so both must be left zero.
func NewNetwork(n int, edges [][2]int, opts Options) (*Network, error) {
	return newNetwork(n, edges, opts, DefaultInboxSize)
}

// newNetwork is NewNetwork with the brokers' inbox capacity as a parameter.
func newNetwork(n int, edges [][2]int, opts Options, inboxSize int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netoverlay: need at least one node, got %d", n)
	}
	if opts.NodeID != 0 || opts.Metrics != nil {
		return nil, errors.New("netoverlay: a Network assigns node IDs and registries; leave Options.NodeID and Options.Metrics zero")
	}
	if err := validateTree(n, edges); err != nil {
		return nil, err
	}
	nw := &Network{nodes: make([]*Broker, n)}
	for i := range nw.nodes {
		o := opts
		o.NodeID = uint32(i + 1)
		nw.nodes[i] = newBroker(o, inboxSize)
	}
	// Links attach in edge order, so every run numbers a node's links
	// alike. The pipe is synchronous: both hellos need both sides running.
	for _, e := range edges {
		dial, accept := net.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- nw.nodes[e[1]].link(accept, false) }()
		err := nw.nodes[e[0]].link(dial, true)
		if err2 := <-errc; err == nil {
			err = err2
		}
		if err != nil {
			nw.Close()
			return nil, err
		}
	}
	return nw, nil
}

// LineEdges returns the chain 0-1-2-…-(n-1).
func LineEdges(n int) [][2]int {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	return edges
}

// StarEdges returns a hub-and-spoke topology with node 0 as the hub.
func StarEdges(n int) [][2]int {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return edges
}

// TreeEdges returns a complete k-ary tree on n nodes rooted at 0. A fanout
// below 1 yields no edges, which NewNetwork rejects for n > 1.
func TreeEdges(n, fanout int) [][2]int {
	if fanout < 1 {
		return nil
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{(i - 1) / fanout, i})
	}
	return edges
}

func validateTree(n int, edges [][2]int) error {
	if len(edges) != n-1 {
		return fmt.Errorf("%w: %d nodes need %d edges, got %d", ErrNotATree, n, n-1, len(edges))
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("%w: edge %v out of range", ErrNotATree, e)
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			return fmt.Errorf("%w: edge %v closes a cycle", ErrNotATree, e)
		}
		parent[ra] = rb
	}
	return nil
}

// Node returns broker i (node ID i+1).
func (nw *Network) Node(i int) *Broker { return nw.nodes[i] }

// Flush is the package-level Flush over every node of the network.
func (nw *Network) Flush() { Flush(nw.nodes...) }

// Stats sums the nodes' statistics. Every node's effects are read before
// any node's Published, so even mid-storm the sums reconcile: a forward or
// delivery in the snapshot has its publish in it too.
func (nw *Network) Stats() Stats {
	var st Stats
	for _, b := range nw.nodes {
		st.addEffects(b.Stats())
	}
	for _, b := range nw.nodes {
		st.Published += b.published.Value()
	}
	return st
}

// Close stops every broker and waits for their goroutines. Queued messages
// are discarded; Flush calls in progress return once every node is closed.
func (nw *Network) Close() {
	for _, b := range nw.nodes {
		b.Close()
	}
}

// addEffects accumulates another broker's statistics except Published,
// the cause, which Network.Stats reads last.
func (s *Stats) addEffects(o Stats) {
	s.Forwarded += o.Forwarded
	s.Delivered += o.Delivered
	s.SubscriptionMsgs += o.SubscriptionMsgs
	s.CoverSuppressed += o.CoverSuppressed
	s.HopDropped += o.HopDropped
	s.InstallErrors += o.InstallErrors
	s.Shed += o.Shed
	s.SpilledBytes += o.SpilledBytes
	s.QueuedBytes += o.QueuedBytes
	s.Evicted += o.Evicted
	s.Peers += o.Peers
}
