package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
	"noncanon/internal/subtree"
	"noncanon/internal/workload"
)

// listings names the two association modes every differential test here
// runs under.
var listings = []struct {
	name  string
	paper bool
}{{"access", false}, {"paper", true}}

// listedUnder returns the predicates whose association list holds id.
func listedUnder(e *Engine, id matcher.SubID) []predicate.ID {
	var out []predicate.ID
	for i, subs := range e.assoc {
		if slices.Contains(subs, id) {
			out = append(out, predicate.ID(i+1))
		}
	}
	return out
}

func mustParse(tb testing.TB, src string) boolexpr.Expr {
	tb.Helper()
	x, err := sublang.Parse(src)
	if err != nil {
		tb.Fatalf("parse %q: %v", src, err)
	}
	return x
}

// TestAccessClauseChoice pins which predicates a tree is listed under.
func TestAccessClauseChoice(t *testing.T) {
	parse := func(src string) boolexpr.Expr { return mustParse(t, src) }
	tests := []struct {
		name string
		expr boolexpr.Expr
		want []string // predicates the tree must be listed under
	}{
		{"equality beats range pair", parse(`(price > 5 or price <= 2) and bucket = 3`), []string{"bucket = 3"}},
		{"nested top-level And is flattened",
			boolexpr.And{Xs: []boolexpr.Expr{
				boolexpr.And{Xs: []boolexpr.Expr{parse(`price > 5`), parse(`bucket = 3`)}},
				parse(`vol >= 3 or not region = "r1"`),
			}},
			[]string{"bucket = 3"}},
		{"zero-satisfiable conjunct is skipped", parse(`(vol >= 3 or not region = "r1") and price > 5`), []string{"price > 5"}},
		{"!= and exists lose to a range", parse(`a != 1 and exists b and c < 4`), []string{"c < 4"}},
		{"!=/exists-only conjuncts still list", parse(`a != 1 and exists b`), []string{"a != 1"}},
		{"fewer leaves break a cost tie", parse(`(a = 1 or b = 2 or c = 3) and d > 4`), []string{"d > 4"}},
		{"repeated leaf listed once", parse(`a > 1 and (b = 2 or b = 2)`), []string{"b = 2"}},
		{"top-level Or keeps every predicate", parse(`a = 1 or (b = 2 and c = 3)`), []string{"a = 1", "b = 2", "c = 3"}},
		{"single leaf", parse(`a = 1`), []string{"a = 1"}},
		{"top-level Not keeps every predicate",
			boolexpr.Not{X: boolexpr.Not{X: parse(`a = 1 and b > 2`)}}, []string{"a = 1", "b > 2"}},
		{"zero-satisfiable tree is on no list", parse(`not a = 1 and not b = 2`), nil},
	}
	for _, tt := range tests {
		for _, enc := range []subtree.Encoding{subtree.PaperEncoding, subtree.CompactEncoding} {
			e, reg, _ := newEngine(Options{Encoding: enc})
			id, err := e.Subscribe(tt.expr)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, pid := range listedUnder(e, id) {
				p, _ := reg.Get(pid)
				got = append(got, p.String())
			}
			var want []string
			for _, src := range tt.want {
				want = append(want, mustParse(t, src).String())
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s (%s): listed under %q, want %q", tt.name, enc, got, want)
			}
		}
	}
}

// TestAccessClauseRefcountTieBreak: between equally selective clauses of
// equal width, the one whose predicates fewer trees hold wins.
func TestAccessClauseRefcountTieBreak(t *testing.T) {
	e, reg, _ := newEngine(Options{})
	for i := 0; i < 3; i++ {
		if _, err := e.Subscribe(mustParse(t, fmt.Sprintf(`a = 1 and z = %d`, i))); err != nil {
			t.Fatal(err)
		}
	}
	id, err := e.Subscribe(mustParse(t, `a = 1 and b = 2`))
	if err != nil {
		t.Fatal(err)
	}
	got := listedUnder(e, id)
	bEq2 := reg.Intern(predicate.New("b", predicate.Eq, 2))
	reg.Release(bEq2)
	if !slices.Equal(got, []predicate.ID{bEq2}) {
		t.Errorf("listed under %v, want [%d] (b = 2, refcount 1 against a = 1's 4)", got, bEq2)
	}
}

// TestInstrumentedMatchCountsAlways: zero-satisfiable trees are evaluated on
// every event, so the instrumented count includes them exactly once.
func TestInstrumentedMatchCountsAlways(t *testing.T) {
	for _, l := range listings {
		e, reg, _ := newEngine(Options{PaperAssociation: l.paper})
		neg, _ := e.Subscribe(mustParse(t, `not a = 1`))
		pos, _ := e.Subscribe(mustParse(t, `a = 2`))
		aEq1 := reg.Intern(predicate.New("a", predicate.Eq, 1))
		aEq2 := reg.Intern(predicate.New("a", predicate.Eq, 2))
		reg.Release(aEq1)
		reg.Release(aEq2)
		for _, tt := range []struct {
			fulfilled []predicate.ID
			evals     int
			leaves    int
			match     []matcher.SubID
		}{
			{nil, 1, 1, []matcher.SubID{neg}},
			{[]predicate.ID{aEq2}, 2, 2, []matcher.SubID{neg, pos}},
			{[]predicate.ID{aEq1}, 1, 1, nil}, // a paper candidate and always: once
		} {
			leaves, evals := e.InstrumentedMatch(tt.fulfilled)
			if evals != tt.evals || leaves != tt.leaves {
				t.Errorf("%s: fulfilled %v: evals %d leaves %d, want %d and %d",
					l.name, tt.fulfilled, evals, leaves, tt.evals, tt.leaves)
			}
			got := e.MatchPredicates(tt.fulfilled)
			slices.Sort(got)
			if !slices.Equal(got, tt.match) {
				t.Errorf("%s: fulfilled %v: MatchPredicates %v, want %v", l.name, tt.fulfilled, got, tt.match)
			}
		}
	}
}

// TestAccessCountedWorkTable1Shape runs the paper's Table 1 subscriptions,
// (p1 ∨ p2) ∧ … ∧ (p|p|-1 ∨ p|p|) over unique predicates, which have no
// single necessary predicate: the access clause is one OR-pair, so the
// listing shrinks |p|/2-fold and candidates fall to about 2/|p| of the
// paper's, with identical match sets.
func TestAccessCountedWorkTable1Shape(t *testing.T) {
	for _, preds := range []int{6, 8, 10} {
		params := workload.Params{NumSubscriptions: 4000, PredsPerSub: preds, FulfilledPerEvent: 4 * preds, Seed: 3}
		var engines [2]*Engine
		for i, l := range listings {
			engines[i], _, _ = newEngine(Options{PaperAssociation: l.paper})
			for s := 0; s < params.NumSubscriptions; s++ {
				if _, err := engines[i].Subscribe(params.Sub(s)); err != nil {
					t.Fatal(err)
				}
			}
		}
		access, paper := engines[0], engines[1]
		if got, want := access.AssocEntries(), 2*params.NumSubscriptions; got != want {
			t.Errorf("|p|=%d: access listing holds %d entries, want %d (one OR-pair per tree)", preds, got, want)
		}
		// Sparse draws (the paper's one fulfilled predicate in a thousand)
		// count candidates; dense draws make trees match, to compare sets.
		rng := rand.New(rand.NewSource(4))
		accessEvals, paperEvals, matched := 0, 0, 0
		dense := params
		dense.FulfilledPerEvent = params.TotalPredicates() / 2
		for trial := 0; trial < 200; trial++ {
			draw := params.FulfilledDraw(rng)
			_, a := access.InstrumentedMatch(draw)
			_, p := paper.InstrumentedMatch(draw)
			accessEvals += a
			paperEvals += p
			if trial%10 != 0 {
				continue
			}
			draw = dense.FulfilledDraw(rng)
			got, want := access.MatchPredicates(draw), paper.MatchPredicates(draw)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("|p|=%d trial %d: access matches %v, paper matches %v", preds, trial, got, want)
			}
			matched += len(got)
		}
		if paperEvals == 0 || matched == 0 {
			t.Fatalf("|p|=%d: vacuous draws (paper candidates %d, matches %d)", preds, paperEvals, matched)
		}
		bound := 1.1 * 2 / float64(preds) * float64(paperEvals)
		if float64(accessEvals) > bound {
			t.Errorf("|p|=%d: access candidates %d, want <= %.0f (1.1 × 2/|p| × paper's %d)",
				preds, accessEvals, bound, paperEvals)
		}
	}
}

// selectiveShape returns n filters in n/8 buckets shaped like the TCP
// benchmark's selective workload — a bucket equality beside a price band
// and a zero-satisfiable volume/region clause — with the left group kept as
// a nested And, and a matching event generator.
func selectiveShape(rng *rand.Rand, n int) ([]boolexpr.Expr, func() event.Event) {
	buckets := n / 8
	filters := make([]boolexpr.Expr, n)
	for i := range filters {
		a := 2000 + rng.Intn(8000)
		filters[i] = boolexpr.And{Xs: []boolexpr.Expr{
			boolexpr.And{Xs: []boolexpr.Expr{
				boolexpr.Pred("bucket", predicate.Eq, i%buckets),
				boolexpr.NewOr(boolexpr.Pred("price", predicate.Gt, a), boolexpr.Pred("price", predicate.Le, a-2000)),
			}},
			boolexpr.NewOr(
				boolexpr.Pred("vol", predicate.Ge, rng.Intn(1000)),
				boolexpr.NewNot(boolexpr.Pred("region", predicate.Eq, fmt.Sprintf("r%d", rng.Intn(4)))),
			),
		}}
	}
	return filters, func() event.Event {
		return event.New().
			Set("bucket", rng.Intn(buckets)).
			Set("price", rng.Intn(10000)).
			Set("region", fmt.Sprintf("r%d", rng.Intn(4))).
			Set("vol", rng.Intn(1000))
	}
}

// TestAccessCountedWorkSelectiveShape: one equality gates every tree, so
// a full phase-one/phase-two match evaluates only that bucket's trees.
func TestAccessCountedWorkSelectiveShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	filters, nextEvent := selectiveShape(rng, 4000)
	var engines [2]*Engine
	for i, l := range listings {
		engines[i], _, _ = newEngine(Options{PaperAssociation: l.paper})
		for _, f := range filters {
			if _, err := engines[i].Subscribe(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	access, paper := engines[0], engines[1]
	const events = 200
	accessEvals, paperEvals, accessFound, eagerFound := 0, 0, 0, 0
	for trial := 0; trial < events; trial++ {
		ev := nextEvent()
		fulfilled := access.idx.Match(ev, nil)
		eagerFound += len(fulfilled)
		accessFound += len(access.idx.MatchAccess(ev, nil))
		_, a := access.InstrumentedMatch(fulfilled)
		_, p := paper.InstrumentedMatch(paper.idx.Match(ev, nil))
		accessEvals += a
		paperEvals += p
		got, want := access.Match(ev), paper.Match(ev)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("event %s: access matches %v, paper matches %v", ev, got, want)
		}
	}
	if per := float64(accessEvals) / events; per > 16 {
		t.Errorf("access listing: %.1f candidates per event, want <= 16", per)
	}
	if accessEvals*10 > paperEvals {
		t.Errorf("access candidates %d not 10× below paper's %d", accessEvals, paperEvals)
	}
	// Lazy phase one: the access partition holds the bucket equalities
	// alone, while the complete index still finds every fulfilled range.
	if per := float64(accessFound) / events; per > 16 {
		t.Errorf("MatchAccess finds %.1f predicates per event, want <= 16", per)
	}
	if per := float64(eagerFound) / events; per < 1000 {
		t.Errorf("Match finds %.1f predicates per event, want >= 1000", per)
	}
}

// fuzzChurnPool is the filter universe FuzzAccessChurn draws from: shapes
// that stress the access-clause choice, followed by random trees.
func fuzzChurnPool(tb testing.TB, rng *rand.Rand) []boolexpr.Expr {
	tb.Helper()
	p := func(src string) boolexpr.Expr { return mustParse(tb, src) }
	pool := []boolexpr.Expr{
		// Nested top-level Ands.
		boolexpr.And{Xs: []boolexpr.Expr{
			boolexpr.And{Xs: []boolexpr.Expr{p(`a = 1`), p(`b > 2 or b <= 0`)}},
			p(`c >= 3 or not d = 1`),
		}},
		boolexpr.And{Xs: []boolexpr.Expr{
			boolexpr.And{Xs: []boolexpr.Expr{boolexpr.And{Xs: []boolexpr.Expr{p(`b < 3`), p(`c != 2`)}}}},
			p(`a = 2 or a = 3`),
		}},
		// A leaf repeated inside the chosen clause.
		p(`a > 1 and (b = 2 or b = 2)`),
		p(`a = 1 and (b = 2 or b = 2)`),
		p(`(a = 1 or a = 1) and (a = 1 or b = 2)`),
		// Top-level Or and Not.
		p(`a = 1 or (b = 2 and c = 3)`),
		boolexpr.Not{X: p(`a = 1 and b = 2`)},
		// Deep NOT.
		boolexpr.Not{X: boolexpr.Not{X: boolexpr.Not{X: boolexpr.Not{X: p(`a = 1 and b > 2`)}}}},
		boolexpr.And{Xs: []boolexpr.Expr{boolexpr.Not{X: boolexpr.Not{X: p(`c = 1`)}}, boolexpr.Not{X: p(`d = 2`)}}},
		// !=/exists-only conjuncts.
		p(`a != 1 and exists b`),
		p(`exists a and exists b and d != 2`),
		p(`not a = 1`),
		// Operands where float ordering and value.Compare part, beside
		// an access clause so they are decided on demand.
		boolexpr.NewAnd(boolexpr.Pred("a", predicate.Gt, int64(1<<53)), p(`b != 5 or c > 5`)),
		boolexpr.NewAnd(p(`a = 1`), boolexpr.NewOr(
			boolexpr.Pred("b", predicate.Ge, int64(1<<53+1)), boolexpr.Pred("c", predicate.Lt, int64(1<<53+1)))),
		boolexpr.NewAnd(p(`b = 2`), boolexpr.NewOr(
			boolexpr.Pred("c", predicate.Le, int64(1<<53)), boolexpr.Pred("d", predicate.Eq, int64(1<<53+1)))),
		boolexpr.NewAnd(p(`exists a`), boolexpr.NewOr(
			boolexpr.Pred("d", predicate.Ne, int64(1<<53+1)), boolexpr.Pred("b", predicate.Gt, math.Inf(-1)))),
		boolexpr.NewAnd(p(`c = 3`), boolexpr.NewNot(boolexpr.Pred("a", predicate.Eq, math.NaN()))),
		p(`a != 5 and (b > 5 or c <= 5)`),
	}
	cfg := boolexpr.RandomConfig{MaxDepth: 4, MaxFanout: 3, AllowNot: true, Attrs: []string{"a", "b", "c", "d"}, Domain: 5}
	for i := 0; i < 12; i++ {
		pool = append(pool, boolexpr.RandomExpr(rng, cfg))
	}
	return pool
}

// churnEdges are the event values where float ordering and value.Compare
// part.
var churnEdges = []any{
	math.NaN(), math.Inf(1), math.Inf(-1),
	int64(1<<53 - 1), int64(1 << 53), int64(1<<53 + 1),
	int64(-1<<53 - 1), int64(-1 << 53), int64(-1<<53 + 1), float64(1 << 53),
}

func churnEvent(rng *rand.Rand) event.Event {
	ev := event.New()
	for _, attr := range []string{"a", "b", "c", "d"} {
		switch rng.Intn(5) {
		case 0:
		case 1:
			ev = ev.Set(attr, "s"+fmt.Sprint(rng.Intn(5)))
		case 2:
			ev = ev.Set(attr, churnEdges[rng.Intn(len(churnEdges))])
		default:
			ev = ev.Set(attr, rng.Intn(5))
		}
	}
	return ev
}

// FuzzAccessChurn interleaves Subscribe and Unsubscribe from fuzzed bytes
// on one engine per listing. After every step Match (lazy phase one),
// MatchPredicates over the complete idx.Match (eager phase one) and the
// naive boolexpr evaluator must agree, on events that include NaN, ±Inf
// and the neighbours of ±2^53. Every structure must drain once everything
// is unsubscribed (a tree listed twice under a repeated leaf would survive
// its removal), and the access partition with it.
func FuzzAccessChurn(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 8, 1, 3, 5}, int64(1))
	f.Add([]byte{4, 4, 6, 6, 1, 1, 3, 3}, int64(2))
	f.Add([]byte{10, 12, 14, 16, 18, 20, 22, 7, 9, 11}, int64(3))
	f.Add([]byte{0, 0, 2, 2, 3, 5, 1, 24, 26, 28, 30, 1}, int64(4))
	f.Add([]byte{32, 34, 36, 38, 40, 42, 44, 46, 1, 3, 5, 7}, int64(5))

	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		pool := fuzzChurnPool(t, rng)
		for _, l := range listings {
			e, reg, idx := newEngine(Options{PaperAssociation: l.paper})
			empty := e.MemBytes()
			live := map[matcher.SubID]boolexpr.Expr{}
			var order []matcher.SubID
			check := func(step int) {
				for i := 0; i < 4; i++ {
					ev := churnEvent(rng)
					var want []matcher.SubID
					for id, x := range live {
						if x.Eval(ev) {
							want = append(want, id)
						}
					}
					got, eager := e.Match(ev), e.MatchPredicates(idx.Match(ev, nil))
					slices.Sort(got)
					slices.Sort(eager)
					slices.Sort(want)
					if !slices.Equal(got, want) || !slices.Equal(eager, want) {
						t.Fatalf("%s step %d: on %s Match = %v, eager phase one %v, naive %v",
							l.name, step, ev, got, eager, want)
					}
					// The access partition is exactly the listed predicates.
					for _, pid := range idx.MatchAccess(ev, nil) {
						if i := int(pid) - 1; i >= len(e.assoc) || len(e.assoc[i]) == 0 {
							t.Fatalf("%s step %d: MatchAccess(%s) found unlisted predicate %d", l.name, step, ev, pid)
						}
					}
				}
			}
			for step, b := range ops {
				if b&1 == 0 || len(order) == 0 {
					x := pool[int(b>>1)%len(pool)]
					id, err := e.Subscribe(x)
					if err != nil {
						t.Fatal(err)
					}
					live[id] = x
					order = append(order, id)
				} else {
					i := int(b>>1) % len(order)
					if err := e.Unsubscribe(order[i]); err != nil {
						t.Fatal(err)
					}
					delete(live, order[i])
					order = slices.Delete(order, i, i+1)
				}
				check(step)
			}
			for _, id := range order {
				if err := e.Unsubscribe(id); err != nil {
					t.Fatal(err)
				}
			}
			for i, subs := range e.assoc {
				if subs != nil {
					t.Fatalf("%s: assoc[%d] = %v after unsubscribing everything", l.name, i, subs)
				}
			}
			if reg.Len() != 0 || idx.NumPredicates() != 0 || len(e.always) != 0 {
				t.Fatalf("%s: %d predicates, %d indexed, %d always after unsubscribing everything",
					l.name, reg.Len(), idx.NumPredicates(), len(e.always))
			}
			for i := 0; i < 4; i++ {
				if ev := churnEvent(rng); len(idx.MatchAccess(ev, nil)) != 0 {
					t.Fatalf("%s: MatchAccess(%s) = %v after unsubscribing everything", l.name, ev, idx.MatchAccess(ev, nil))
				}
			}
			// An empty engine keeps only its grown tables: slot flags, free
			// IDs and empty association headers.
			if got, want := e.MemBytes(), empty+len(e.slots)+8*len(e.free)+24*len(e.assoc); got != want {
				t.Fatalf("%s: MemBytes %d after unsubscribing everything, want %d", l.name, got, want)
			}
		}
	})
}

// TestLazyPhaseOneResolvesOnDemand: Match probes only the access
// partition, and phase two evaluates each leaf outside it at most once per
// event — memoised true or false in the mark table — and only when the
// walk reaches it.
func TestLazyPhaseOneResolvesOnDemand(t *testing.T) {
	e, reg, idx := newEngine(Options{})
	x := func(src string) matcher.SubID {
		id, err := e.Subscribe(mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	first := x(`a = 1 and (b > 5 or c = 2)`)
	second := x(`a = 1 and (b > 5 or d = 3)`)
	third := x(`a = 1 and not b > 5`)
	pid := func(src string) predicate.ID {
		id := reg.Intern(mustParse(t, src).(boolexpr.Leaf).Pred)
		reg.Release(id)
		return id
	}
	aEq1, bGt5, cEq2, dEq3 := pid(`a = 1`), pid(`b > 5`), pid(`c = 2`), pid(`d = 3`)

	sc := &matchScratch{eng: e}
	match := func(ev event.Event) []matcher.SubID {
		e.mu.RLock()
		defer e.mu.RUnlock()
		e.syncScratchRLocked(sc)
		got := e.evalEvent(sc, ev, e.prepareEvent(sc, ev), nil)
		slices.Sort(got)
		return got
	}
	for _, tt := range []struct {
		ev    event.Event
		want  []matcher.SubID
		marks map[predicate.ID]uint32 // predMark after the event, relative to its epoch
	}{
		// b > 5 holds: resolved true once, c and d never reached.
		{event.New().Set("a", 1).Set("b", 7).Set("c", 2), []matcher.SubID{first, second},
			map[predicate.ID]uint32{aEq1: 0, bGt5: 0, cEq2: stale, dEq3: stale}},
		// b > 5 fails: resolved false once, then c and d each decided.
		{event.New().Set("a", 1).Set("b", 3).Set("c", 2), []matcher.SubID{first, third},
			map[predicate.ID]uint32{aEq1: 0, bGt5: resolvedFalse, cEq2: 0, dEq3: resolvedFalse}},
	} {
		if got := idx.MatchAccess(tt.ev, nil); !slices.Equal(got, []predicate.ID{aEq1}) {
			t.Errorf("%s: MatchAccess = %v, want only a = 1 (%d)", tt.ev, got, aEq1)
		}
		if got := match(tt.ev); !slices.Equal(got, tt.want) {
			t.Errorf("%s: matched %v, want %v", tt.ev, got, tt.want)
		}
		for id, rel := range tt.marks {
			got := sc.predMark[id-1]
			if rel == stale {
				if got&^resolvedFalse == sc.epoch {
					t.Errorf("%s: predicate %d decided (%#x) though no walk reached it", tt.ev, id, got)
				}
			} else if got != sc.epoch|rel {
				t.Errorf("%s: predicate %d stamped %#x, want %#x", tt.ev, id, got, sc.epoch|rel)
			}
		}
	}
}

// stale marks a predicate TestLazyPhaseOneResolvesOnDemand expects to be
// left undecided.
const stale = 1
