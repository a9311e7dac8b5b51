package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
)

// raceExpr builds a small random AND/OR/NOT expression over integer
// attributes a0..a3 with operands in [0, 50).
func raceExpr(rng *rand.Rand, depth int) boolexpr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		attr := "a" + string(rune('0'+rng.Intn(4)))
		ops := []predicate.Op{predicate.Eq, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
		return boolexpr.Pred(attr, ops[rng.Intn(len(ops))], rng.Intn(50))
	}
	switch rng.Intn(3) {
	case 0:
		return boolexpr.NewAnd(raceExpr(rng, depth-1), raceExpr(rng, depth-1))
	case 1:
		return boolexpr.NewOr(raceExpr(rng, depth-1), raceExpr(rng, depth-1))
	default:
		return boolexpr.NewNot(raceExpr(rng, depth-1))
	}
}

func raceEvent(rng *rand.Rand) event.Event {
	ev := event.New()
	for i := 0; i < 4; i++ {
		ev = ev.Set("a"+string(rune('0'+i)), rng.Intn(50))
	}
	return ev
}

// TestConcurrentMatchCrossCheck stress-tests the concurrent read path under
// -race: a fixed population of "stable" subscriptions is registered up
// front, then matcher goroutines run Match/MatchPredicates/InstrumentedMatch
// while churn goroutines subscribe and unsubscribe throw-away subscriptions.
// Every Match result, projected onto the stable population, must equal the
// naive per-expression evaluation of the event — regardless of concurrent
// store mutation.
func TestConcurrentMatchCrossCheck(t *testing.T) { concurrentCrossCheck(t, Options{}) }

// TestConcurrentMatchCrossCheckPaperAssociation is the same storm under
// the paper's every-predicate listing.
func TestConcurrentMatchCrossCheckPaperAssociation(t *testing.T) {
	concurrentCrossCheck(t, Options{PaperAssociation: true})
}

func concurrentCrossCheck(t *testing.T, opts Options) {
	e, _, _ := newEngine(opts)
	rng := rand.New(rand.NewSource(7))

	const stableN = 200
	stable := make(map[matcher.SubID]boolexpr.Expr, stableN)
	for i := 0; i < stableN; i++ {
		x := raceExpr(rng, 3)
		id, err := e.Subscribe(x)
		if err != nil {
			t.Fatal(err)
		}
		stable[id] = x
	}

	iters := 400
	if testing.Short() {
		iters = 100
	}
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}

	var stop atomic.Bool
	var churnWG, matchWG sync.WaitGroup

	// Churn goroutines: register and remove throw-away subscriptions until
	// the matchers are done.
	for w := 0; w < workers/2; w++ {
		churnWG.Add(1)
		go func(seed int64) {
			defer churnWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []matcher.SubID
			for !stop.Load() {
				if len(mine) < 8 && rng.Intn(2) == 0 {
					id, err := e.Subscribe(raceExpr(rng, 3))
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				} else if len(mine) > 0 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := e.Unsubscribe(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, id := range mine {
				if err := e.Unsubscribe(id); err != nil {
					t.Error(err)
				}
			}
		}(100 + int64(w))
	}

	// Match goroutines: cross-check against the naive matcher on the stable
	// population; churned IDs in the result are ignored (they belong to
	// whichever concurrent store state the read lock observed).
	for w := 0; w < (workers+1)/2; w++ {
		matchWG.Add(1)
		go func(seed int64) {
			defer matchWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				ev := raceEvent(rng)
				got := e.Match(ev)
				gotStable := make(map[matcher.SubID]bool, len(got))
				for _, id := range got {
					if _, ok := stable[id]; ok {
						gotStable[id] = true
					}
				}
				for id, x := range stable {
					if want := x.Eval(ev); want != gotStable[id] {
						t.Errorf("event %v: stable sub %d: naive=%v engine=%v (expr %v)",
							ev, id, want, gotStable[id], x)
						return
					}
				}
				// Exercise the other read-path entry points concurrently.
				e.MatchPredicates([]predicate.ID{predicate.ID(1 + rng.Intn(8))})
				e.InstrumentedMatch([]predicate.ID{predicate.ID(1 + rng.Intn(8))})
				_ = e.NumSubscriptions()
			}
		}(200 + int64(w))
	}

	matchWG.Wait()
	stop.Store(true)
	churnWG.Wait()

	// The store must be intact after the storm: a final serial cross-check.
	ev := raceEvent(rng)
	got := subIDs(e.Match(ev)...)
	for id, x := range stable {
		if x.Eval(ev) != got[id] {
			t.Fatalf("post-storm mismatch on sub %d", id)
		}
	}
}
