// Package router is the transport-agnostic core of a content-routed broker:
// the SIENA-style routing state machine every federation node runs (see
// internal/netoverlay), specialised to acyclic (tree) broker topologies.
//
//   - A subscription registered at a broker is flooded through the tree.
//     Every broker subscribes it on its broker.Broker at the outlet of the
//     link it arrived on — the next hop toward the subscriber.
//   - An event is published on the broker of every node it visits. Local
//     handlers run; a link's sink forwards the event once however many
//     routes behind the link match, never back where it came from. On a
//     tree this delivers every matching subscription exactly once while
//     filtering prunes all branches without subscribers.
//
// With Config.Cover the flood is pruned by covering: each link has one
// covering poset (internal/cover/dag) holding every route not learned over
// it, and the far side holds the link poset's sent nodes. A route is sent
// only if it creates a frontier node; a sent node stays sent when a broader
// one demotes it; a dying node's uncovered children are sent BEFORE its
// retraction, so the far side never carries neither filter. A sent node is
// known by a live member route's ID: when that route leaves a surviving
// node, the node is re-announced under another member's ID first, so no
// retired ID lingers to collide with a restarted broker's reuse of it.
//
// A Router is owned by a single broker goroutine: every method but Counts
// (atomic counters) must be called from it. A link is built with its
// Sender (AddLink), through which every outbound message over it leaves.
// Send must never block — implementations queue (see Queue) so that a
// broker goroutine can never be wedged by a congested peer.
package router

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/cover"
	"noncanon/internal/cover/dag"
	"noncanon/internal/event"
	"noncanon/internal/obs"
)

// MaxHops bounds event forwarding as a safety net; tree routing never
// reaches it. Drops are counted in Counts.HopDropped rather than silent.
const MaxHops = 255

// ErrDuplicate marks a flood of an installed subscription ID: a topology cycle.
var ErrDuplicate = errors.New("duplicate subscription (cycle in topology?)")

// Handler consumes events delivered to a local subscriber. Handlers run on
// the owning broker's goroutine and must not block.
type Handler func(ev event.Event)

// Kind tags a routing message.
type Kind uint8

// Routing message kinds.
const (
	// Sub floods a subscription: SubID + Expr.
	Sub Kind = iota + 1
	// Unsub retracts a subscription network-wide: SubID.
	Unsub
	// Event forwards a publication: Ev + Hops.
	Event
)

// Trace identifies a sampled event for cross-broker latency tracing: a
// non-zero ID plus the origin broker's publish timestamp (UnixNano). The
// zero Trace means "not sampled" and costs nothing anywhere.
type Trace struct {
	ID          uint64
	OriginNanos int64
}

// Msg is one broker-to-broker routing message.
type Msg struct {
	Kind  Kind
	SubID uint64
	Expr  boolexpr.Expr
	Ev    event.Event
	Hops  int
	// Trace rides along on Event messages; the router preserves it across
	// forwards so every hop of a sampled event can be timed.
	Trace Trace
}

// Sender carries routing messages over one link toward a neighbouring
// broker. Send is invoked on the broker goroutine and MUST NOT block: queue
// the message (Queue is the intended buffer) and let a writer drain it.
type Sender interface {
	Send(m Msg)
}

// Config assembles a router.
type Config struct {
	// Cover enables covering-based flood pruning.
	Cover bool
	// Broker matches events; the router subscribes every known route on it
	// and publishes every event it routes.
	Broker *broker.Broker
	// Metrics is the registry the router's counters live in; nil gets a
	// private registry (Counts still works, nothing is exported). Routers
	// sharing a registry share instruments, so one snapshot reads their
	// totals.
	Metrics *obs.Registry
}

// Counts is a snapshot of router activity.
type Counts struct {
	// Forwarded counts event copies sent over links.
	Forwarded uint64
	// Delivered counts local handler invocations.
	Delivered uint64
	// SubMsgs counts subscription-propagation link messages (floods and
	// retractions).
	SubMsgs uint64
	// CoverSuppressed counts subscription forwards pruned because the link
	// already carried a covering subscription (Config.Cover only).
	CoverSuppressed uint64
	// HopDropped counts events discarded at the MaxHops safety net — on a
	// tree this staying zero is a routing invariant.
	HopDropped uint64
}

// route is the broker's view of one overlay subscription.
type route struct {
	subID   uint64
	sub     *broker.Subscription // on the next hop's outlet, as handle subID
	expr    boolexpr.Expr        // kept for link syncs and link posets
	handler Handler              // non-nil only at the subscriber's home broker
	nextHop int                  // link index toward the subscriber; -1 when local
}

// link is one live link: its sender, the broker outlet of the routes
// behind it, whose sink it is, and (Config.Cover only) the covering poset
// of every route not learned over it.
type link struct {
	r     *Router
	i     int
	s     Sender
	out   *broker.Outlet
	poset *dag.DAG
	seq   uint64 // the last event forwarded over the link
}

// Deliver forwards the event being routed over the link, once however many
// routes behind the link it matches, and never back where it came from.
//
//nclint:hotpath
func (l *link) Deliver(uint64, event.Event) bool {
	if r := l.r; l.seq != r.seq && l.i != r.from {
		l.seq = r.seq
		r.forwarded.Inc()
		l.s.Send(r.fwd)
	}
	return true
}

// localSink is the sink of the routes with a local handler, which it runs
// inline.
type localSink Router

func (s *localSink) Deliver(subID uint64, ev event.Event) bool {
	s.routes[subID].handler(ev)
	s.delivered.Inc()
	return true
}

// linkNode is a link poset node's Data: its routes in join order, and the
// one whose ID the far side knows it by.
type linkNode struct {
	routes []*route
	name   *route // nil while unsent
}

// Router is the per-broker routing state machine.
type Router struct {
	b     *broker.Broker
	cover bool

	routes map[uint64]*route
	local  *broker.Outlet // the outlet of the routes with a local handler

	// links[i] is nil once RemoveLink(i) declared the link dead; floods
	// skip dead links but indexes stay stable.
	links []*link

	// The event being routed, for the link sinks: its sequence number, the
	// link it arrived on, and the message its forwards carry. Handlers must
	// not call back into the router.
	seq  uint64
	from int
	fwd  Msg

	forwarded     *obs.Counter
	delivered     *obs.Counter
	subMsgs       *obs.Counter
	coverSuppress *obs.Counter
	hopDropped    *obs.Counter
}

// New builds a router over the given broker, with no links yet.
func New(cfg Config) *Router {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		b:      cfg.Broker,
		cover:  cfg.Cover,
		routes: make(map[uint64]*route),
	}
	r.local = r.b.Attach((*localSink)(r))
	// Cause-counters before effect-counters: Registry.Snapshot reads in
	// reverse registration order, so registering subMsgs → … → forwarded
	// means a snapshot reads forwarded (effect) before the counters whose
	// activity produced it, and totals reconcile mid-storm. Callers that
	// register their own cause (netoverlay's published) must do so before
	// constructing routers.
	r.subMsgs = reg.Counter("router_sub_msgs_total")
	r.coverSuppress = reg.Counter("router_cover_suppressed_total")
	r.hopDropped = reg.Counter("router_hop_dropped_total")
	r.delivered = reg.Counter("router_delivered_total")
	r.forwarded = reg.Counter("router_forwarded_total")
	return r
}

// AddLink registers link NumLinks(), sending over s, and floods every known
// route over it in ID order, covering-pruned like any other flood, so
// subscriptions older than the link attract events across it. It returns
// the link's index, by which Handle and RemoveLink name it.
func (r *Router) AddLink(s Sender) int {
	l := &link{r: r, i: len(r.links), s: s}
	l.out = r.b.Attach(l)
	if r.cover {
		l.poset = dag.New()
	}
	r.links = append(r.links, l)
	for _, rt := range r.sortedRoutes(func(int) bool { return true }) {
		r.subOverLink(l, rt)
	}
	return l.i
}

// RemoveLink declares a link dead: its covering poset is dropped and every
// route learned through it is retracted as if unsubscribed from that side.
func (r *Router) RemoveLink(link int) {
	if link < 0 || link >= len(r.links) || r.links[link] == nil {
		return
	}
	r.links[link] = nil
	r.remove(r.sortedRoutes(func(nextHop int) bool { return nextHop == link }), link)
}

// sortedRoutes returns, in ID order, the routes whose next hop passes keep.
func (r *Router) sortedRoutes(keep func(nextHop int) bool) []*route {
	var out []*route
	for _, rt := range r.routes {
		if keep(rt.nextHop) {
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].subID < out[b].subID })
	return out
}

// NumLinks reports the registered link count (dead links included).
func (r *Router) NumLinks() int { return len(r.links) }

// NumRoutes reports how many subscriptions this broker knows.
func (r *Router) NumRoutes() int { return len(r.routes) }

// HasRoute reports whether a subscription is installed here.
func (r *Router) HasRoute(subID uint64) bool { return r.routes[subID] != nil }

// CoverState reports one link poset's distinct filters and frontier size;
// tests use it to assert churn leaves no residue.
func (r *Router) CoverState(link int) (filters, frontier int) {
	if l := r.links[link]; l != nil && l.poset != nil {
		return l.poset.Len(), l.poset.FrontierLen()
	}
	return 0, 0
}

// Counts snapshots the activity counters; safe from any goroutine. With a
// shared Config.Metrics registry the counters are shared too, so Counts
// then reports totals across every router on the registry.
func (r *Router) Counts() Counts {
	return Counts{
		Forwarded:       r.forwarded.Value(),
		Delivered:       r.delivered.Value(),
		SubMsgs:         r.subMsgs.Value(),
		CoverSuppressed: r.coverSuppress.Value(),
		HopDropped:      r.hopDropped.Value(),
	}
}

// Handle dispatches one routing message arriving on link `from` (-1 for
// the broker's own API, whose subscriptions carry the handler h). It
// returns the anomalies a host must surface: an error wrapping ErrDuplicate
// for a flood of an installed ID, the broker's install error, and a
// retraction that does not come from its route's next hop.
func (r *Router) Handle(m Msg, h Handler, from int) error {
	switch m.Kind {
	case Sub:
		return r.subscribe(m.SubID, m.Expr, h, from)
	case Unsub:
		// An unknown ID's retraction overtook its flood on another branch;
		// one from elsewhere than the next hop names another node's route.
		if rt, ok := r.routes[m.SubID]; ok && rt.nextHop != from {
			return fmt.Errorf("router: retraction of subscription %d over link %d, whose route leads over %d", m.SubID, from, rt.nextHop)
		} else if ok {
			r.remove([]*route{rt}, from)
		}
	case Event:
		r.routeEvent(m, from)
	}
	return nil
}

// subscribe installs a subscription arriving on link `from` and floods it
// to every other live link. It drops one from a dead link (a frame read
// before the removal) silently, and a duplicate ID or broker rejection
// with the returned error.
func (r *Router) subscribe(subID uint64, expr boolexpr.Expr, h Handler, from int) error {
	if from >= len(r.links) || from >= 0 && r.links[from] == nil {
		return nil
	}
	if _, dup := r.routes[subID]; dup {
		return fmt.Errorf("router: subscription %d: %w", subID, ErrDuplicate)
	}
	out := r.local
	if from >= 0 {
		out = r.links[from].out
	}
	sub, err := out.Subscribe(expr, subID)
	if err != nil {
		return fmt.Errorf("router: install subscription %d: %w", subID, err)
	}
	rt := &route{subID: subID, sub: sub, expr: expr, nextHop: from}
	if from == -1 {
		rt.handler = h
	}
	r.routes[subID] = rt
	for i, l := range r.links {
		if i != from && l != nil {
			r.subOverLink(l, rt)
		}
	}
	return nil
}

// subOverLink floods a route over one link. With covering it is sent only
// if it creates a frontier node in the link's poset; otherwise a filter the
// far side already holds covers it, and the flood is pruned.
func (r *Router) subOverLink(l *link, rt *route) {
	if !r.cover {
		r.subMsgs.Inc()
		l.s.Send(Msg{Kind: Sub, SubID: rt.subID, Expr: rt.expr})
		return
	}
	res := l.poset.Add(rt.expr)
	if res.New {
		res.Node.Data = &linkNode{}
	}
	ln := res.Node.Data.(*linkNode)
	ln.routes = append(ln.routes, rt)
	if res.New && res.Frontier {
		r.sendNode(l, ln)
	} else {
		r.coverSuppress.Inc()
	}
}

// sendNode floods a link poset node named by its first live route, or its
// first route if all leave with one RemoveLink (the node then dies in it).
func (r *Router) sendNode(l *link, ln *linkNode) {
	ln.name = ln.routes[max(0, slices.IndexFunc(ln.routes, r.live))]
	r.subMsgs.Inc()
	l.s.Send(Msg{Kind: Sub, SubID: ln.name.subID, Expr: ln.name.expr})
}

// live reports whether a route is still in the route table.
func (r *Router) live(rt *route) bool { return r.routes[rt.subID] == rt }

// remove drops routes from the route table and the broker, then retracts
// each from every live link but `from` — all dropped first, so a node they
// share with a survivor is re-announced once, not once per leaving member.
func (r *Router) remove(routes []*route, from int) {
	for _, rt := range routes {
		delete(r.routes, rt.subID)
		if err := rt.sub.Unsubscribe(); err != nil {
			// The broker accepted this route: route table and broker disagree.
			panic(fmt.Sprintf("router: remove subscription %d: %v", rt.subID, err))
		}
	}
	for _, rt := range routes {
		for i, l := range r.links {
			if i != from && l != nil {
				r.unsubOverLink(l, rt)
			}
		}
	}
}

// unsubOverLink retracts a removed route from one link. With covering it
// leaves and releases its node, sends children left uncovered, then, if
// the node's name is a removed route, re-announces a surviving node under
// a live member and retracts the old name. The far side thus briefly
// carries both (an event still crosses once) instead of neither.
func (r *Router) unsubOverLink(l *link, rt *route) {
	if !r.cover {
		r.subMsgs.Inc()
		l.s.Send(Msg{Kind: Unsub, SubID: rt.subID})
		return
	}
	n := l.poset.Lookup(cover.Key(rt.expr))
	if l.i == rt.nextHop || n == nil {
		return // never added here: the route came over this link
	}
	ln := n.Data.(*linkNode)
	ln.routes = slices.DeleteFunc(ln.routes, func(x *route) bool { return x == rt })
	res := l.poset.Release(n)
	for _, p := range res.Promoted {
		if pl := p.Data.(*linkNode); pl.name == nil {
			r.sendNode(l, pl)
		}
	}
	old := ln.name
	if old == nil || r.live(old) {
		return // the far side never held the node, or knows it by a live member's ID
	}
	if !res.Died {
		if !slices.ContainsFunc(ln.routes, r.live) {
			return // every member leaves with this RemoveLink; the last retracts old
		}
		r.sendNode(l, ln)
	}
	r.subMsgs.Inc()
	l.s.Send(Msg{Kind: Unsub, SubID: old.subID})
}

// routeEvent publishes an event (m.Ev, having travelled m.Hops) that
// arrived on link `from`; the broker's sinks deliver it to local
// subscribers and forward one copy per distinct next-hop link. It takes the
// full routing message so per-message extras — today the trace — survive
// the forward instead of being flattened away at every hop.
func (r *Router) routeEvent(m Msg, from int) {
	if m.Hops >= MaxHops {
		r.hopDropped.Inc()
		return
	}
	r.seq++
	r.from, r.fwd = from, m // keep Trace (and any future per-message extras) intact
	r.fwd.Kind, r.fwd.Hops = Event, m.Hops+1
	_, _ = r.b.Publish(m.Ev) // fails only once the host closed the broker
}
