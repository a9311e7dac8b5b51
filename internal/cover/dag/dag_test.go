package dag_test

import (
	"math/rand"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/cover"
	"noncanon/internal/cover/dag"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// bandFilter mirrors the bench covering workload: category-pinned price
// bands where, within a category, a wider band provably covers every
// narrower one.
func bandFilter(cat, width int) boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(cat)),
		boolexpr.Pred("price", predicate.Lt, int64(width)),
	)
}

func TestNestedBandsTrackFrontier(t *testing.T) {
	d := dag.New()

	broad := d.Add(bandFilter(1, 100))
	if !broad.New || !broad.Frontier {
		t.Fatalf("first insert: got %+v, want new frontier node", broad)
	}
	narrow := d.Add(bandFilter(1, 10))
	if !narrow.New || narrow.Frontier {
		t.Fatalf("covered insert: got New=%v Frontier=%v, want new covered node", narrow.New, narrow.Frontier)
	}
	if got := d.FrontierLen(); got != 1 {
		t.Fatalf("FrontierLen = %d, want 1", got)
	}

	// A broader band demotes the current frontier entry.
	broadest := d.Add(bandFilter(1, 1000))
	if !broadest.Frontier || broad.Node.Frontier() {
		t.Fatalf("broadest insert: Frontier=%v, old frontier still Frontier=%v", broadest.Frontier, broad.Node.Frontier())
	}
	if got := d.FrontierLen(); got != 1 {
		t.Fatalf("FrontierLen after demotion = %d, want 1", got)
	}

	// Other categories do not interact.
	other := d.Add(bandFilter(2, 10))
	if !other.Frontier {
		t.Fatal("distinct category should join the frontier")
	}

	// Dropping the broadest promotes the mid band (its only recorded
	// parent chain root) back into the frontier before the caller
	// retracts the dying entry.
	rel := d.Release(broadest.Node)
	if !rel.Died {
		t.Fatalf("release broadest: %+v", rel)
	}
	if len(rel.Promoted) == 0 {
		t.Fatalf("release broadest promoted nothing; frontier gapped")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInterningAndRefcounts(t *testing.T) {
	d := dag.New()
	a := d.Add(bandFilter(1, 10))
	b := d.Add(bandFilter(1, 10))
	if b.New || b.Node != a.Node {
		t.Fatalf("identical filter created a second node")
	}
	if d.Refs() != 2 || a.Node.Refs() != 2 {
		t.Fatalf("refs = %d/%d, want 2/2", d.Refs(), a.Node.Refs())
	}
	if r := d.Release(a.Node); r.Died {
		t.Fatal("node died with a live reference")
	}
	if r := d.Release(a.Node); !r.Died {
		t.Fatal("last release did not retire the node")
	}
	if d.Len() != 0 || d.Refs() != 0 {
		t.Fatalf("empty dag has Len=%d Refs=%d", d.Len(), d.Refs())
	}
}

func TestEquivalenceMerges(t *testing.T) {
	// Same matched set, different canonical keys: the second insert must
	// alias onto the first node, not demote it into a cycle.
	plain := boolexpr.Pred("x", predicate.Lt, 10)
	padded := boolexpr.NewOr(
		boolexpr.Pred("x", predicate.Lt, 10),
		boolexpr.NewAnd(boolexpr.Pred("y", predicate.Gt, 6), boolexpr.Pred("y", predicate.Lt, 5)),
	)
	if cover.Key(plain) == cover.Key(padded) {
		t.Fatal("test needs distinct canonical keys")
	}
	d := dag.New()
	a := d.Add(plain)
	b := d.Add(padded)
	if b.New || b.Node != a.Node {
		t.Fatalf("provably equivalent filter did not merge: New=%v", b.New)
	}
	if d.Len() != 1 || d.FrontierLen() != 1 || a.Node.Refs() != 2 {
		t.Fatalf("after merge: Len=%d FrontierLen=%d Refs=%d", d.Len(), d.FrontierLen(), a.Node.Refs())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- randomized property battery -------------------------------------

// churnPool builds a deterministic mixed filter pool: covering band
// chains, loose range filters, Or-shapes and fully random expressions.
func churnPool(rng *rand.Rand, size int) []boolexpr.Expr {
	cfg := boolexpr.RandomConfig{MaxDepth: 3, MaxFanout: 3, AllowNot: true, Domain: 8}
	pool := make([]boolexpr.Expr, 0, size)
	for i := 0; len(pool) < size; i++ {
		switch i % 4 {
		case 0:
			pool = append(pool, bandFilter(i%5, 1<<(uint(i/5)%10)))
		case 1:
			pool = append(pool, boolexpr.Pred("price", predicate.Lt, int64(rng.Intn(64))))
		case 2:
			pool = append(pool, boolexpr.NewOr(bandFilter(rng.Intn(5), rng.Intn(100)), bandFilter(rng.Intn(5), rng.Intn(100))))
		default:
			pool = append(pool, boolexpr.RandomExpr(rng, cfg))
		}
	}
	return pool
}

// churnEvent draws events that hit the pool's attributes (cat/price) and
// the RandomExpr attribute space.
func churnEvent(rng *rand.Rand) event.Event {
	ev := event.New()
	if rng.Intn(4) > 0 {
		ev = ev.Set("cat", int64(rng.Intn(5)))
	}
	if rng.Intn(4) > 0 {
		ev = ev.Set("price", int64(rng.Intn(1024)))
	}
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			ev = ev.Set("a"+string(rune('0'+rng.Intn(8))), int64(rng.Intn(8)))
		}
	}
	return ev
}

// dagMatch computes the matched node set of a walk down from the
// frontier: frontier nodes that match expand into children, a failing node
// prunes its subtree.
func dagMatch(d *dag.DAG, ev event.Event) map[*dag.Node]bool {
	out := make(map[*dag.Node]bool)
	visited := make(map[*dag.Node]bool)
	var walk func(n *dag.Node)
	walk = func(n *dag.Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		if !n.Expr().Eval(ev) {
			return // sound prune: every covered descendant matches a subset
		}
		out[n] = true
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, n := range d.Nodes() {
		if n.Frontier() {
			walk(n)
		}
	}
	return out
}

// reachable reports whether target can be reached from n via child edges
// (recomputed from the public API, independent of dag's internals).
func reachable(n, target *dag.Node) bool {
	if n == target {
		return true
	}
	seen := map[*dag.Node]bool{}
	stack := []*dag.Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		for _, c := range x.Children() {
			if c == target {
				return true
			}
			stack = append(stack, c)
		}
	}
	return false
}

// checkMaximality asserts the frontier is exactly the maximal elements of
// the proven covering relation: an uncovered-maximal node must be
// frontier (no over-demotion, unconditionally), and a frontier node must
// have no live proven coverer — except the documented degenerate corner
// where recording that edge would have closed a proof-asymmetry cycle
// among semantically equal nodes, which the skipped edge's reachability
// witnesses.
func checkMaximality(t *testing.T, d *dag.DAG) {
	t.Helper()
	nodes := d.Nodes()
	for _, b := range nodes {
		coverer := (*dag.Node)(nil)
		for _, a := range nodes {
			if a == b {
				continue
			}
			if cover.Covers(a.Expr(), b.Expr()) {
				coverer = a
				break
			}
		}
		if coverer == nil && !b.Frontier() {
			t.Fatalf("node %q has no live coverer but is not frontier", b.Key())
		}
		if coverer != nil && b.Frontier() && !reachable(b, coverer) {
			t.Fatalf("frontier node %q is provably covered by live %q (no cycle exemption)", b.Key(), coverer.Key())
		}
	}
}

// TestDAGChurnProperties drives random subscribe/unsubscribe sequences
// and, after every operation, checks the full poset invariant suite:
// structural consistency + acyclicity + frontier reachability
// (CheckInvariants), refcount totals, match-set equivalence against brute
// force, and (periodically, it is quadratic with prover calls)
// frontier-equals-maximal-elements.
func TestDAGChurnProperties(t *testing.T) {
	seeds := []int64{1, 7, 101, 20260808}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Logf("seed %d (re-run by editing seeds in TestDAGChurnProperties)", seed)
		rng := rand.New(rand.NewSource(seed))
		pool := churnPool(rng, 40)
		d := dag.New()
		type handle struct{ n *dag.Node }
		var live []handle
		steps := 600
		if testing.Short() {
			steps = 200
		}
		for step := 0; step < steps; step++ {
			if len(live) == 0 || rng.Intn(100) < 55 {
				res := d.Add(pool[rng.Intn(len(pool))])
				live = append(live, handle{res.Node})
			} else {
				i := rng.Intn(len(live))
				d.Release(live[i].n)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if d.Refs() != len(live) {
				t.Fatalf("seed %d step %d: refs %d, live subscriptions %d", seed, step, d.Refs(), len(live))
			}
			if step%20 == 0 {
				ev := churnEvent(rng)
				got := dagMatch(d, ev)
				for _, n := range d.Nodes() {
					want := n.Expr().Eval(ev)
					if got[n] != want {
						t.Fatalf("seed %d step %d: node %q match=%v via frontier walk, brute force %v (event %v)",
							seed, step, n.Key(), got[n], want, ev)
					}
				}
			}
			if step%100 == 99 {
				checkMaximality(t, d)
			}
		}
		checkMaximality(t, d)
	}
}
