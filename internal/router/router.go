// Package router is the transport-agnostic core of a content-routed broker:
// the SIENA-style routing state machine the overlay simulation and the TCP
// federation both run, specialised to acyclic (tree) broker topologies.
//
//   - A subscription registered at a broker is flooded through the tree.
//     Every broker installs it in its local non-canonical engine and
//     remembers the link it arrived on — the next hop toward the
//     subscriber.
//   - An event is matched at every broker it visits. Local subscribers are
//     notified; for remote matches the event is forwarded once per distinct
//     next-hop link (never back where it came from). On a tree this
//     delivers every matching subscription exactly once while filtering
//     prunes all branches without subscribers.
//
// With Config.Cover the flood is pruned by subscription covering
// (internal/cover): a broker does not forward a subscription over a link
// that already carries one covering it. The suppressed subscription is
// remembered against its coverer; when the coverer is unsubscribed the
// broker re-floods the filters it was shadowing over that link — each
// re-checked against the remaining forwarded set, so a second coverer
// re-suppresses instead of re-flooding. The re-floods are sent BEFORE the
// retraction so the far side never carries neither filter.
//
// A Router is owned by a single broker goroutine: all Handle* methods must
// be called from that goroutine. Outbound messages leave through the
// Transport, whose Send must never block — implementations queue (see
// Queue) so that a broker goroutine can never be wedged by a congested
// peer. Counters are atomic and may be read from any goroutine.
package router

import (
	"fmt"
	"sort"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/cover"
	"noncanon/internal/event"
	"noncanon/internal/matcher"
	"noncanon/internal/obs"
)

// MaxHops bounds event forwarding as a safety net; tree routing never
// reaches it. Drops are counted in Counts.HopDropped rather than silent.
const MaxHops = 255

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

// Transport carries routing messages toward a neighbouring broker. Send is
// invoked on the broker goroutine and MUST NOT block: queue the message
// (Queue is the intended buffer) and let a writer goroutine drain it.
type Transport interface {
	Send(link int, m Msg)
}

// Config assembles a router.
type Config struct {
	// Links is the initial link count; AddLink grows it.
	Links int
	// Cover enables covering-based flood pruning.
	Cover bool
	// Engine is the broker's local matching engine; the router installs
	// every known subscription into it.
	Engine *core.Engine
	// Transport carries outbound messages.
	Transport Transport
	// Metrics is the registry the router's counters live in; nil gets a
	// private registry (Counts still works, nothing is exported). Routers
	// sharing a registry share instruments — the overlay exploits this to
	// read network totals in one snapshot.
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
	// CoverCacheHits and CoverCacheMisses count lookups in the memoized
	// covering test (Config.Cover only): hits skipped a pairwise Covers
	// proof, misses ran one and cached it.
	CoverCacheHits   uint64
	CoverCacheMisses uint64
}

// route is the broker's view of one overlay subscription.
type route struct {
	subID    uint64
	engineID matcher.SubID
	expr     boolexpr.Expr // kept for covering re-floods and link syncs
	key      string        // cover.Key(expr), the memoization key (Cover only)
	handler  Handler       // non-nil only at the subscriber's home broker
	nextHop  int           // link index toward the subscriber; -1 when local
}

// fwdEntry is one subscription actually forwarded over a link, with its
// canonical key alongside so covering checks against it can hit the cache.
type fwdEntry struct {
	expr boolexpr.Expr
	key  string
}

// coverPair keys one memoized Covers(a, b) verdict by the operands'
// canonical keys. cover.Key equality implies identical matched-event
// sets, so a cached true transfers soundly to any expression with the
// same key; a cached false merely forgoes pruning, which covering is
// always allowed to do.
type coverPair struct {
	a, b string
}

// coverCacheMax bounds the memo table; churn past it clears and restarts
// rather than growing without bound (the next storm re-warms it).
const coverCacheMax = 1 << 16

// Router is the per-broker routing state machine.
type Router struct {
	eng   *core.Engine
	tr    Transport
	cover bool

	routes   map[uint64]*route
	byEngine map[matcher.SubID]*route

	// links[i] is false once RemoveLink(i) declared the link dead; floods
	// and forwards skip dead links but indexes stay stable.
	links []bool

	// Covering state (Config.Cover only), indexed by link. fwd[i] holds
	// the subscriptions this broker actually sent over link i; coveredBy[i]
	// maps a suppressed subscription to the forwarded one that shadows it,
	// and coverees[i] is the reverse index consulted on unsubscribe.
	fwd       []map[uint64]fwdEntry
	coveredBy []map[uint64]uint64
	coverees  []map[uint64]map[uint64]struct{}

	// coverCache memoizes pairwise Covers proofs across links and floods
	// (broker-goroutine-owned, like the rest of the routing state).
	coverCache map[coverPair]bool

	// matchBuf is HandleEventMsg's recycled match-result buffer; the single
	// owning goroutine makes a plain field enough (handlers must not call
	// back into the router).
	matchBuf []matcher.SubID

	forwarded     *obs.Counter
	delivered     *obs.Counter
	subMsgs       *obs.Counter
	coverSuppress *obs.Counter
	hopDropped    *obs.Counter
	coverHits     *obs.Counter
	coverMisses   *obs.Counter
}

// New builds a router over the given engine and transport.
func New(cfg Config) *Router {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		eng:      cfg.Engine,
		tr:       cfg.Transport,
		cover:    cfg.Cover,
		routes:   make(map[uint64]*route),
		byEngine: make(map[matcher.SubID]*route),
	}
	if cfg.Cover {
		r.coverCache = make(map[coverPair]bool)
	}
	// Cause-counters before effect-counters: Registry.Snapshot reads in
	// reverse registration order, so registering subMsgs → … → forwarded
	// means a snapshot reads forwarded (effect) before the counters whose
	// activity produced it, and totals reconcile mid-storm. Callers that
	// register their own cause (overlay's published) must do so before
	// constructing routers.
	r.subMsgs = reg.Counter("router_sub_msgs_total")
	r.coverMisses = reg.Counter("router_cover_cache_misses_total")
	r.coverHits = reg.Counter("router_cover_cache_hits_total")
	r.coverSuppress = reg.Counter("router_cover_suppressed_total")
	r.hopDropped = reg.Counter("router_hop_dropped_total")
	r.delivered = reg.Counter("router_delivered_total")
	r.forwarded = reg.Counter("router_forwarded_total")
	for i := 0; i < cfg.Links; i++ {
		r.AddLink()
	}
	return r
}

// AddLink registers a new link and returns its index. The caller must be
// ready to receive Transport.Send for the index before calling SyncLink.
func (r *Router) AddLink() int {
	i := len(r.links)
	r.links = append(r.links, true)
	if r.cover {
		r.fwd = append(r.fwd, make(map[uint64]fwdEntry))
		r.coveredBy = append(r.coveredBy, make(map[uint64]uint64))
		r.coverees = append(r.coverees, make(map[uint64]map[uint64]struct{}))
	}
	return i
}

// SyncLink floods every route this broker knows over a freshly added link,
// covering-pruned like any other flood. Brokers that join an existing
// federation call it once the link's writer is running, so subscriptions
// registered before the link existed still attract events across it.
func (r *Router) SyncLink(link int) {
	ids := make([]uint64, 0, len(r.routes))
	for id := range r.routes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		rt := r.routes[id]
		if rt.nextHop == link {
			continue // defensive; a fresh link cannot be a next hop yet
		}
		r.sendSubOverLink(link, id, rt.expr, rt.key)
	}
}

// RemoveLink declares a link dead: its covering bookkeeping is dropped and
// every route learned through it is retracted locally and from the rest of
// the network, exactly as if each had been unsubscribed from that side.
func (r *Router) RemoveLink(link int) {
	if link < 0 || link >= len(r.links) || !r.links[link] {
		return
	}
	r.links[link] = false
	if r.cover {
		r.fwd[link] = make(map[uint64]fwdEntry)
		r.coveredBy[link] = make(map[uint64]uint64)
		r.coverees[link] = make(map[uint64]map[uint64]struct{})
	}
	var dead []uint64
	for id, rt := range r.routes {
		if rt.nextHop == link {
			dead = append(dead, id)
		}
	}
	sort.Slice(dead, func(a, b int) bool { return dead[a] < dead[b] })
	for _, id := range dead {
		r.HandleUnsubscribe(id, link)
	}
}

// NumLinks reports the registered link count (dead links included).
func (r *Router) NumLinks() int { return len(r.links) }

// NumRoutes reports how many subscriptions this broker knows.
func (r *Router) NumRoutes() int { return len(r.routes) }

// HasRoute reports whether a subscription is installed here.
func (r *Router) HasRoute(subID uint64) bool {
	_, ok := r.routes[subID]
	return ok
}

// CoverState reports the covering bookkeeping sizes for one link; tests use
// it to assert churn leaves no residue.
func (r *Router) CoverState(link int) (fwd, covered, coverers int) {
	if !r.cover {
		return 0, 0, 0
	}
	return len(r.fwd[link]), len(r.coveredBy[link]), len(r.coverees[link])
}

// Counts snapshots the activity counters; safe from any goroutine. With a
// shared Config.Metrics registry the counters are shared too, so Counts
// then reports totals across every router on the registry.
func (r *Router) Counts() Counts {
	return Counts{
		Forwarded:        r.forwarded.Value(),
		Delivered:        r.delivered.Value(),
		SubMsgs:          r.subMsgs.Value(),
		CoverSuppressed:  r.coverSuppress.Value(),
		HopDropped:       r.hopDropped.Value(),
		CoverCacheHits:   r.coverHits.Value(),
		CoverCacheMisses: r.coverMisses.Value(),
	}
}

// HandleSubscribe installs a subscription arriving on link `from` (-1 for
// the broker's own API) and floods it to every other live link. It returns
// installed=false for a duplicate subscription ID — impossible on a tree,
// so callers should surface it as a topology anomaly — and a non-nil error
// when the engine rejects the filter (the route is then not installed and
// nothing is flooded).
func (r *Router) HandleSubscribe(subID uint64, expr boolexpr.Expr, h Handler, from int) (installed bool, err error) {
	if _, dup := r.routes[subID]; dup {
		return false, nil
	}
	engineID, err := r.eng.Subscribe(expr)
	if err != nil {
		return false, fmt.Errorf("router: install subscription %d: %w", subID, err)
	}
	rt := &route{subID: subID, engineID: engineID, expr: expr, nextHop: from}
	if r.cover {
		rt.key = cover.Key(expr) // once per route, not once per pairwise proof
	}
	if from == -1 {
		rt.handler = h
	}
	r.routes[subID] = rt
	r.byEngine[engineID] = rt
	for i := range r.links {
		if i == from || !r.links[i] {
			continue
		}
		r.sendSubOverLink(i, subID, expr, rt.key)
	}
	return true, nil
}

// coversCached answers cover.Covers(a, b) through the key-pair memo. The
// proof is recomputed at most once per distinct (Key(a), Key(b)) pair for
// the cache's lifetime — SyncLink and covering re-floods stop re-proving
// the same pairs once per link.
func (r *Router) coversCached(aKey string, a boolexpr.Expr, bKey string, b boolexpr.Expr) bool {
	p := coverPair{aKey, bKey}
	if v, ok := r.coverCache[p]; ok {
		r.coverHits.Inc()
		return v
	}
	if len(r.coverCache) >= coverCacheMax {
		r.coverCache = make(map[coverPair]bool)
	}
	r.coverMisses.Inc()
	v := cover.Covers(a, b)
	r.coverCache[p] = v
	return v
}

// sendSubOverLink forwards a subscription over one link unless a
// subscription already forwarded there covers it: the far side then
// already attracts a superset of the matching events toward this broker, so
// routing stays exact and the flood is pruned. Suppressions are recorded
// so an unsubscribe of the coverer can re-flood them.
func (r *Router) sendSubOverLink(i int, subID uint64, expr boolexpr.Expr, key string) {
	if !r.cover {
		r.subMsgs.Inc()
		r.tr.Send(i, Msg{Kind: Sub, SubID: subID, Expr: expr})
		return
	}
	for tid, te := range r.fwd[i] {
		if r.coversCached(te.key, te.expr, key, expr) {
			r.coveredBy[i][subID] = tid
			set := r.coverees[i][tid]
			if set == nil {
				set = make(map[uint64]struct{})
				r.coverees[i][tid] = set
			}
			set[subID] = struct{}{}
			r.coverSuppress.Inc()
			return
		}
	}
	r.fwd[i][subID] = fwdEntry{expr: expr, key: key}
	r.subMsgs.Inc()
	r.tr.Send(i, Msg{Kind: Sub, SubID: subID, Expr: expr})
}

// HandleUnsubscribe removes a subscription arriving on link `from` (-1 for
// the broker's own API) and propagates the retraction. Unknown IDs are
// ignored (the retraction may have overtaken the flood on another branch).
func (r *Router) HandleUnsubscribe(subID uint64, from int) bool {
	rt, ok := r.routes[subID]
	if !ok {
		return false
	}
	delete(r.routes, subID)
	delete(r.byEngine, rt.engineID)
	if err := r.eng.Unsubscribe(rt.engineID); err != nil {
		// The engine accepted this ID at install time; failure here means
		// the route tables and engine disagree — corrupted state worth
		// stopping for even in production brokers.
		panic(fmt.Sprintf("router: remove subscription %d: %v", subID, err))
	}
	for i := range r.links {
		if i == from || !r.links[i] {
			continue
		}
		r.unsubOverLink(i, subID)
	}
	return true
}

// unsubOverLink retracts a subscription from one link. Only subscriptions
// actually forwarded there need a link message; a suppressed one just
// clears its shadow bookkeeping. Retracting a forwarded subscription
// re-floods everything it was covering (in deterministic order), each
// re-checked against the remaining forwarded set so another coverer can
// re-suppress it.
//
// Ordering matters: the re-floods are sent BEFORE the retraction. The far
// side then briefly carries both the coverer and the re-flooded filters —
// which routes a single event copy anyway (next-hop links are
// deduplicated) — whereas the opposite order would open a window carrying
// neither, dropping events for stable subscribers.
func (r *Router) unsubOverLink(i int, subID uint64) {
	if !r.cover {
		r.subMsgs.Inc()
		r.tr.Send(i, Msg{Kind: Unsub, SubID: subID})
		return
	}
	if _, sent := r.fwd[i][subID]; !sent {
		if cid, covered := r.coveredBy[i][subID]; covered {
			delete(r.coveredBy[i], subID)
			if set := r.coverees[i][cid]; set != nil {
				delete(set, subID)
				if len(set) == 0 {
					delete(r.coverees[i], cid)
				}
			}
		}
		return
	}
	delete(r.fwd[i], subID) // before re-flooding: no self-covering
	if shadowed := r.coverees[i][subID]; len(shadowed) > 0 {
		delete(r.coverees[i], subID)
		ids := make([]uint64, 0, len(shadowed))
		for sid := range shadowed {
			ids = append(ids, sid)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, sid := range ids {
			delete(r.coveredBy[i], sid)
			if rr, live := r.routes[sid]; live {
				r.sendSubOverLink(i, sid, rr.expr, rr.key)
			}
		}
	} else {
		delete(r.coverees[i], subID)
	}
	r.subMsgs.Inc()
	r.tr.Send(i, Msg{Kind: Unsub, SubID: subID})
}

// HandleEventMsg matches an event (m.Ev, having travelled m.Hops)
// arriving on link `from` (-1 for the broker's own API), delivers to local
// subscribers and forwards one copy per distinct next-hop link. It takes
// the full routing message so per-message extras — today the trace —
// survive the forward instead of being flattened away at every hop.
func (r *Router) HandleEventMsg(m Msg, from int) {
	ev, hops := m.Ev, m.Hops
	if hops >= MaxHops {
		r.hopDropped.Inc()
		return
	}
	r.matchBuf = r.eng.MatchInto(ev, r.matchBuf[:0])
	// Deliver locally; collect distinct next-hop links.
	var hopSet uint64 // bitset over link indexes; brokers here have < 64 links
	var bigHops map[int]bool
	for _, engineID := range r.matchBuf {
		rt, ok := r.byEngine[engineID]
		if !ok {
			continue
		}
		if rt.nextHop == -1 {
			rt.handler(ev)
			r.delivered.Inc()
			continue
		}
		if rt.nextHop == from {
			continue // never bounce an event back (cannot happen on a tree)
		}
		if rt.nextHop < 64 {
			hopSet |= 1 << uint(rt.nextHop)
		} else {
			if bigHops == nil {
				bigHops = make(map[int]bool)
			}
			bigHops[rt.nextHop] = true
		}
	}
	fwd := m // keep Trace (and any future per-message extras) intact
	fwd.Kind = Event
	fwd.Hops = hops + 1
	for i := range r.links {
		use := false
		if i < 64 {
			use = hopSet&(1<<uint(i)) != 0
		} else {
			use = bigHops[i]
		}
		if !use || !r.links[i] {
			continue
		}
		r.forwarded.Inc()
		r.tr.Send(i, fwd)
	}
}
