package router

import (
	"maps"
	"math"
	"sort"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// fuzzMaxLinks bounds how far AddLink ops grow one router.
const fuzzMaxLinks = 6

// coverPool is the filter universe FuzzRouterCover subscribes from: nested
// bands in two categories, filters covering a whole category or price
// range, an unsatisfiable conjunction, a disjunction, and bands whose
// bound is one of the adversarial numerics the prover refuses to reason
// about.
func coverPool() []boolexpr.Expr {
	pool := []boolexpr.Expr{
		band(1, 1000), band(1, 100), band(1, 50), band(1, 10),
		band(2, 100), band(2, 10),
		boolexpr.Pred("cat", predicate.Eq, int64(1)),
		boolexpr.Pred("price", predicate.Lt, int64(100)),
		boolexpr.NewAnd(band(1, 5), boolexpr.Pred("price", predicate.Gt, int64(7))), // unsatisfiable
		boolexpr.NewOr(band(1, 10), band(2, 10)),
	}
	for _, v := range []any{
		math.NaN(), math.Inf(1), math.Inf(-1),
		int64(1) << 53, int64(1)<<53 + 1, -float64(int64(1) << 53),
	} {
		pool = append(pool, boolexpr.NewAnd(
			boolexpr.Pred("cat", predicate.Eq, int64(1)),
			boolexpr.NewLeaf(predicate.New("price", predicate.Lt, v)),
		))
	}
	return pool
}

// coverEvents is the sampled event set exactness is checked on: every
// combination of a category (or none) with a price (or none) around the
// pool's bounds, including NaN, ±Inf and the ±2^53 boundary. There are
// exactly 64, so a filter's matches fit one uint64.
func coverEvents() []event.Event {
	prices := []any{
		nil, -(int64(1) << 53), int64(-1), int64(0), int64(5), int64(9), int64(10), int64(50),
		int64(99), int64(100), int64(1000), int64(1) << 53, int64(1)<<53 + 1,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	var evs []event.Event
	for _, cat := range []any{nil, int64(1), int64(2), int64(3)} {
		for _, price := range prices {
			ev := event.New()
			if cat != nil {
				ev = ev.Set("cat", cat)
			}
			if price != nil {
				ev = ev.Set("price", price)
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// matchMask evaluates expr naively on every sampled event.
func matchMask(expr boolexpr.Expr, evs []event.Event) uint64 {
	var m uint64
	for k, ev := range evs {
		if expr.Eval(ev) {
			m |= 1 << uint(k)
		}
	}
	return m
}

// FuzzRouterCover drives one router through decoded subscribe,
// unsubscribe, RemoveLink and AddLink ops, with covering on and off, and
// replays what it sends over each link into a far-side table. Subscribe ops
// may reuse a retired ID, as a broker restarted under the same node ID
// does. After every op: no Sub for an ID the table holds and no Unsub for
// one it lacks; every Sub names a live route not learned over that link,
// and every table holds only live routes' IDs; an unsubscribe's re-floods
// precede its retraction; and routing is exact — whenever a route not
// learned over link i matches a sampled event, some filter in link i's
// table matches it too, checked after the op and right after every
// retraction within it. After draining every route, every table is empty,
// CoverState is (0, 0) and the engine holds nothing.
func FuzzRouterCover(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 0, 4, 3, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{2, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 1, 5, 0, 7, 4, 0, 4, 0})
	f.Add([]byte{1, 0, 0, 8, 0, 1, 8, 0, 0, 10, 0, 1, 11, 0, 2, 12, 0, 0, 13, 4, 1, 7, 4, 0})
	f.Add([]byte{2, 0, 1, 0, 0, 2, 3, 6, 0, 0, 1, 2, 7, 0, 4, 1, 4, 0})
	f.Add([]byte{3, 0, 1, 3, 0, 2, 2, 0, 3, 1, 0, 0, 0, 0, 4, 6, 0, 1, 7, 0, 0, 9, 5, 1, 4, 2, 7, 6, 3})
	// An identical local filter joins link 1's node for route 1 from link
	// 0; link 0 dies, and a different filter reuses ID 1.
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0, 6, 0, 3, 0, 5, 0})

	pool, evs := coverPool(), coverEvents()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160] // bound one exec
		}
		for _, coverOn := range []bool{false, true} {
			runCoverScript(t, data, coverOn, pool, evs)
		}
	})
}

// opSends is a Transport collecting one op's sends for replay.
type opSends struct{ sent []sentMsg }

func (o *opSends) Send(link int, m Msg) { o.sent = append(o.sent, sentMsg{link: link, m: m}) }

func runCoverScript(t *testing.T, data []byte, coverOn bool, pool []boolexpr.Expr, evs []event.Event) {
	k := 0
	next := func() int {
		if k >= len(data) {
			return 0
		}
		k++
		return int(data[k-1])
	}
	tr := &opSends{}
	eng := newEngine()
	r := New(Config{Links: 1 + next()%4, Cover: coverOn, Engine: eng, Transport: tr})

	type modelRoute struct {
		from int
		mask uint64
	}
	live := map[uint64]modelRoute{}
	var retired []uint64 // IDs of routes that were live and are gone, reusable
	alive := make([]bool, r.NumLinks())
	far := make([]map[uint64]uint64, r.NumLinks()) // link → sent ID → its filter's matches
	for i := range alive {
		alive[i], far[i] = true, map[uint64]uint64{}
	}
	nextID := uint64(0)

	liveIDs := func() []uint64 {
		ids := make([]uint64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	// needed[i] is every sampled event some live route not learned over
	// link i matches; the far side of link i must attract all of them.
	needed := func(i int) uint64 {
		var m uint64
		for _, rt := range live {
			if rt.from != i {
				m |= rt.mask
			}
		}
		return m
	}
	held := func(i int) uint64 {
		var m uint64
		for _, mask := range far[i] {
			m |= mask
		}
		return m
	}

	// replay applies one op's sends to the far tables and checks them.
	// Every Sub must name a route of subbable: the live routes, or for
	// RemoveLink the routes live before it, whose departing members may
	// name a node until its death within the op.
	replay := func(op string, ordered bool, subbable map[uint64]modelRoute) {
		sent := tr.sent
		tr.sent = nil
		retracted := make([]bool, len(alive))
		for _, s := range sent {
			i, id := s.link, s.m.SubID
			if i < 0 || i >= len(alive) || !alive[i] {
				t.Fatalf("cover=%v %s: sent %v over dead link %d", coverOn, op, s.m.Kind, i)
			}
			switch s.m.Kind {
			case Sub:
				if _, dup := far[i][id]; dup {
					t.Fatalf("cover=%v %s: Sub %d over link %d, which already holds it", coverOn, op, id, i)
				}
				if rt, ok := subbable[id]; !ok || rt.from == i {
					t.Fatalf("cover=%v %s: Sub %d over link %d: no live route, or the link its route came over", coverOn, op, id, i)
				}
				if ordered && retracted[i] {
					t.Fatalf("cover=%v %s: Sub %d over link %d after the op's retraction", coverOn, op, id, i)
				}
				far[i][id] = matchMask(s.m.Expr, evs)
			case Unsub:
				if _, ok := far[i][id]; !ok {
					t.Fatalf("cover=%v %s: Unsub %d over link %d, which does not hold it", coverOn, op, id, i)
				}
				delete(far[i], id)
				retracted[i] = true
				// Gapless: everything still live after the op was live
				// throughout it, so the table must cover it right now.
				if miss := needed(i) &^ held(i); miss != 0 {
					t.Fatalf("cover=%v %s: after Unsub %d, link %d misses events %#x", coverOn, op, id, i, miss)
				}
			default:
				t.Fatalf("cover=%v %s: unexpected %v message", coverOn, op, s.m.Kind)
			}
		}
		if r.NumRoutes() != len(live) {
			t.Fatalf("cover=%v %s: router holds %d routes, model %d", coverOn, op, r.NumRoutes(), len(live))
		}
		for i := range alive {
			if !alive[i] {
				continue
			}
			if miss := needed(i) &^ held(i); miss != 0 {
				t.Fatalf("cover=%v %s: link %d misses events %#x", coverOn, op, i, miss)
			}
			for id := range far[i] {
				if _, ok := live[id]; !ok {
					t.Fatalf("cover=%v %s: link %d still holds retired %d", coverOn, op, i, id)
				}
			}
			if !coverOn {
				continue
			}
			// The far side holds exactly the poset's sent nodes, and every
			// frontier node is sent.
			d := r.posets[i]
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("cover=%v %s: link %d poset: %v", coverOn, op, i, err)
			}
			sent := 0
			for _, n := range d.Nodes() {
				ln := n.Data.(*linkNode)
				if n.Frontier() && ln.name == nil {
					t.Fatalf("cover=%v %s: link %d frontier node %s never sent", coverOn, op, i, n.Expr())
				}
				if ln.name != nil {
					sent++
					if _, ok := far[i][ln.name.subID]; !ok {
						t.Fatalf("cover=%v %s: link %d sent node %d missing from the far table", coverOn, op, i, ln.name.subID)
					}
				}
			}
			if sent != len(far[i]) {
				t.Fatalf("cover=%v %s: link %d far table holds %d filters, poset sent %d", coverOn, op, i, len(far[i]), sent)
			}
		}
	}

	unsubscribe := func(id uint64) {
		from := live[id].from
		delete(live, id)
		retired = append(retired, id)
		if err := r.Handle(Msg{Kind: Unsub, SubID: id}, nil, from); err != nil {
			t.Fatalf("cover=%v: unsubscribe %d: %v", coverOn, id, err)
		}
		replay("unsubscribe", true, live)
	}

	for k < len(data) {
		switch op := next() % 8; {
		case op < 4:
			from := next()%(len(alive)+1) - 1
			expr := pool[next()%len(pool)]
			var id uint64
			if op == 3 && len(retired) > 0 {
				k := next() % len(retired)
				id = retired[k]
				retired = append(retired[:k], retired[k+1:]...)
			} else {
				nextID++
				id = nextID
			}
			if err := r.Handle(Msg{Kind: Sub, SubID: id, Expr: expr}, nil, from); err != nil {
				t.Fatalf("cover=%v: subscribe %d: %v", coverOn, id, err)
			}
			if from >= 0 && !alive[from] {
				if r.HasRoute(id) {
					t.Fatalf("cover=%v: subscription %d installed from dead link %d", coverOn, id, from)
				}
			} else {
				live[id] = modelRoute{from: from, mask: matchMask(expr, evs)}
			}
			replay("subscribe", true, live)
		case op < 6:
			if ids := liveIDs(); len(ids) > 0 {
				unsubscribe(ids[next()%len(ids)])
			}
		case op == 6:
			link := next() % len(alive)
			before := maps.Clone(live)
			r.RemoveLink(link)
			if alive[link] {
				alive[link], far[link] = false, nil
				for _, id := range liveIDs() {
					if live[id].from == link {
						delete(live, id)
						retired = append(retired, id)
					}
				}
			}
			replay("RemoveLink", false, before)
		default:
			if len(alive) < fuzzMaxLinks {
				alive, far = append(alive, true), append(far, map[uint64]uint64{})
				r.AddLink()
				replay("AddLink", true, live)
			}
		}
	}

	for _, id := range liveIDs() {
		unsubscribe(id)
	}
	for i := range alive {
		if len(far[i]) != 0 {
			t.Fatalf("cover=%v: drained, but link %d's far table holds %d filters", coverOn, i, len(far[i]))
		}
		if filters, frontier := r.CoverState(i); filters != 0 || frontier != 0 {
			t.Fatalf("cover=%v: drained, but link %d's poset holds %d filters (%d frontier)", coverOn, i, filters, frontier)
		}
	}
	if n := eng.NumSubscriptions(); n != 0 {
		t.Fatalf("cover=%v: drained, but the engine holds %d subscriptions", coverOn, n)
	}
}
