package main

// layers.go is the only file of the benchmark that names a function, type or
// constant of the repository. Everything else in this package goes through
// the wrappers below, so a later PR that changes a layer's API edits this one
// file and leaves the load generator, the oracle and the statistics frozen.
// The full list is repeated in README.md.

import (
	"io"
	"net"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/core"
	"noncanon/internal/cover/dag"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/intern"
	"noncanon/internal/matcher"
	"noncanon/internal/netbroker"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
	"noncanon/internal/router"
	"noncanon/internal/sublang"
	"noncanon/internal/value"
	"noncanon/internal/wire"
)

type (
	Event  = event.Event
	Attr   = event.Attr
	Expr   = boolexpr.Expr
	PredID = predicate.ID
	SubID  = matcher.SubID
)

// --- event, sublang, boolexpr ---

func intAttr(name string, v int64) Attr {
	return Attr{Name: name, Sym: intern.Of(name), Val: value.OfInt(v)}
}

func strAttr(name, v string) Attr {
	return Attr{Name: name, Sym: intern.Of(name), Val: value.OfString(v)}
}

// newEvent takes ownership of attrs, which must be sorted by name.
func newEvent(attrs []Attr) Event { return event.FromAttrs(attrs) }

func eventInt(ev Event, name string) (int64, bool) {
	v, ok := ev.Get(name)
	return v.Int(), ok
}

func parseSub(text string) (Expr, error) { return sublang.Parse(text) }

// evalNaive is the oracle's evaluator: the recursive boolexpr walk no serving
// path uses.
func evalNaive(x Expr, ev Event) bool { return x.Eval(ev) }

// --- wire ---

const (
	msgSubscribe   = wire.MsgSubscribe
	msgSubscribed  = wire.MsgSubscribed
	msgUnsubscribe = wire.MsgUnsubscribe
	msgOK          = wire.MsgOK
	msgPublish     = wire.MsgPublish
	msgPublished   = wire.MsgPublished
	msgEvent       = wire.MsgEvent
	msgError       = wire.MsgError
	msgBusy        = wire.MsgBusy
)

func appendEvent(b []byte, ev Event) []byte            { return wire.AppendEvent(b, ev) }
func appendU32(b []byte, v uint32) []byte              { return wire.AppendU32(b, v) }
func appendU64(b []byte, v uint64) []byte              { return wire.AppendU64(b, v) }
func appendString(b []byte, s string) []byte           { return wire.AppendString(b, s) }
func readEventAlias(b []byte) (Event, error)           { ev, _, err := wire.ReadEventAlias(b); return ev, err }
func writeFrame(w io.Writer, typ byte, p []byte) error { return wire.WriteFrame(w, typ, p) }

func readFrameInto(r io.Reader, buf []byte) (typ byte, payload, bufOut []byte, err error) {
	return wire.ReadFrameInto(r, buf)
}

// --- index + core: the paper's two-phase engine, with phase 1 reachable ---

type engine struct {
	idx *index.Index
	eng *core.Engine
}

func newEngine() *engine {
	idx := index.New()
	return &engine{idx: idx, eng: core.New(predicate.NewRegistry(), idx, core.Options{})}
}

func (e *engine) subscribe(x Expr) (SubID, error)         { return e.eng.Subscribe(x) }
func (e *engine) unsubscribe(id SubID) error              { return e.eng.Unsubscribe(id) }
func (e *engine) phase1(ev Event, out []PredID) []PredID  { return e.idx.Match(ev, out) }
func (e *engine) phase2(fulfilled []PredID) []SubID       { return e.eng.MatchPredicates(fulfilled) }
func (e *engine) matchInto(ev Event, out []SubID) []SubID { return e.eng.MatchInto(ev, out) }
func (e *engine) memBytes() int                           { return e.eng.MemBytes() }

// phase2Work returns the leaves inspected and candidates evaluated by phase 2.
func (e *engine) phase2Work(fulfilled []PredID) (leaves, candidates int) {
	return e.eng.InstrumentedMatch(fulfilled)
}

// --- cover/dag ---

type coverDAG struct{ d *dag.DAG }
type dagNode = *dag.Node

func newCoverDAG() coverDAG               { return coverDAG{dag.New()} }
func (c coverDAG) add(x Expr) dagNode     { return c.d.Add(x).Node }
func (c coverDAG) release(n dagNode)      { c.d.Release(n) }
func (c coverDAG) frontierShare() float64 { return float64(c.d.FrontierLen()) / float64(c.d.Len()) }

// --- broker (in process) ---

type inprocBroker struct{ b *broker.Broker }
type inprocSub struct{ s *broker.Subscription }

type brokerStats struct{ published, delivered, dropped uint64 }

func newInprocBroker() inprocBroker { return inprocBroker{broker.New(broker.Options{})} }

func (b inprocBroker) subscribe(x Expr, h func(Event)) (inprocSub, error) {
	s, err := b.b.Subscribe(x, h)
	return inprocSub{s}, err
}
func (s inprocSub) unsubscribe() error                         { return s.s.Unsubscribe() }
func (b inprocBroker) publish(ev Event) (int, error)           { return b.b.Publish(ev) }
func (b inprocBroker) publishBatch(evs []Event) ([]int, error) { return b.b.PublishBatch(evs) }
func (b inprocBroker) close() error                            { return b.b.Close() }

// --- netbroker ---

// tcpServer is netbroker with zero-value options: no shards, no aggregation,
// default queue size, so removing a knob later cannot break the benchmark.
type tcpServer struct {
	s    *netbroker.Server
	addr string
	done chan error
}

func startTCPServer() (*tcpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tcpServer{s: netbroker.NewServer(netbroker.ServerOptions{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { t.done <- t.s.Serve(ln) }()
	return t, nil
}

func (t *tcpServer) stats() brokerStats {
	st := t.s.Broker().Stats()
	return brokerStats{published: st.Published, delivered: st.Delivered, dropped: st.Dropped}
}

// close stops the server and waits for its accept loop.
func (t *tcpServer) close() error {
	err := t.s.Close()
	<-t.done
	return err
}

type libClient struct{ c *netbroker.Client }

func dialLibClient(addr string) (libClient, error) {
	c, err := netbroker.Dial(addr)
	return libClient{c}, err
}
func (c libClient) publish(ev Event) (int, error)           { return c.c.Publish(ev) }
func (c libClient) publishBatch(evs []Event) ([]int, error) { return c.c.PublishBatch(evs) }
func (c libClient) close() error                            { return c.c.Close() }

// --- router ---

type flowQueue struct{ q *router.Queue[router.Msg] }

func newFlowQueue() flowQueue {
	return flowQueue{router.NewFlowQueue(router.EstimateMsgBytes, 0, 0)}
}

// offerPop pushes one event message through the queue the way a peer link
// does: Offer on the routing goroutine, Pop on the writer.
func (f flowQueue) offerPop(ev Event) bool {
	if !f.q.Offer(router.Msg{Kind: router.Event, Ev: ev}) {
		return false
	}
	_, ok := f.q.Pop()
	return ok
}

// --- netoverlay ---

type overlayNode struct{ b *netoverlay.Broker }
type overlaySub struct{ ref netoverlay.SubRef }

type overlayStats struct{ forwarded, delivered, shed, subMsgs, queuedBytes, installErrors uint64 }

// newOverlayNode sets only the node ID, for the same reason tcpServer sets
// nothing.
func newOverlayNode(id uint32) overlayNode {
	return overlayNode{netoverlay.NewBroker(netoverlay.Options{NodeID: id})}
}

func (n overlayNode) listen() (string, error) {
	a, err := n.b.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	return a.String(), nil
}
func (n overlayNode) connect(addr string) error { return n.b.Connect(addr) }
func (n overlayNode) subscribe(x Expr, h func(Event)) (overlaySub, error) {
	ref, err := n.b.Subscribe(x, h)
	return overlaySub{ref}, err
}
func (n overlayNode) unsubscribe(s overlaySub) error { return n.b.Unsubscribe(s.ref) }
func (n overlayNode) publish(ev Event) error         { return n.b.Publish(ev) }
func (n overlayNode) close() error                   { return n.b.Close() }
func (n overlayNode) stats() overlayStats {
	st := n.b.Stats()
	return overlayStats{
		forwarded: st.Forwarded, delivered: st.Delivered, shed: st.Shed,
		subMsgs: st.SubscriptionMsgs, queuedBytes: st.QueuedBytes, installErrors: st.InstallErrors,
	}
}
