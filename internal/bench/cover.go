package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
)

// CoverPoint is one popularity-skew setting of the covering sweep
// (experiment C1). A skew of 0 draws filters uniformly from the pool;
// larger values draw by a power law with that exponent (popular filters
// are both frequent and broad).
type CoverPoint struct {
	Skew float64

	// Overlay flood with and without netoverlay.Options.Cover:
	// subscription link messages for the same registration sequence, and
	// how many forwards covering pruned.
	FloodMsgsOff uint64
	FloodMsgsOn  uint64
	Suppressed   uint64
}

// CoverResult is the regenerated covering sweep.
type CoverResult struct {
	Subscribers  int
	Pool         int
	OverlayNodes int
	Points       []CoverPoint
}

// coverOverlayCap caps C1's overlay registrations: flooding is
// O(subs × nodes), so the sweep stays small at any scale.
const coverOverlayCap = 4096

// coverCategories is the number of filter categories in the pool; filters
// within a category are nested price bands, so low ranks are broad
// AND popular — the regime covering exploits.
const coverCategories = 16

// coverFilter returns distinct filter #rank of a pool of `pool`: an
// equality on the category plus a price band whose width shrinks with the
// rank. Within a category, a lower rank covers every higher one.
func coverFilter(rank, pool int) boolexpr.Expr {
	levels := pool/coverCategories + 1
	cat := rank % coverCategories
	width := levels - rank/coverCategories // 1 … levels, broad first
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(cat)),
		boolexpr.Pred("price", predicate.Lt, int64(10*width)),
	)
}

func coverEvent(rng *rand.Rand, pool int) event.Event {
	levels := pool/coverCategories + 1
	return event.New().
		Set("cat", int64(rng.Intn(coverCategories))).
		Set("price", int64(rng.Intn(10*levels)))
}

// coverPool is the number of distinct filters C1 and F1 draw from for
// subs subscribers.
func coverPool(subs int) int { return max(subs/16, coverCategories) }

// powerRanks draws every subscriber's filter rank from a finite-pool power
// law with weight 1/(rank+1)^skew; skew 0 is uniform. For skew > 1 this is
// the law rand.NewZipf(rng, skew, 1, pool-1) draws, but NewZipf refuses
// exponents at or below 1, so the draw inverts a cumulative weight table.
func powerRanks(rng *rand.Rand, skew float64, n, pool int) []int {
	cum := make([]float64, pool)
	total := 0.0
	for r := 0; r < pool; r++ {
		total += math.Pow(float64(r+1), -skew)
		cum[r] = total
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = sort.SearchFloat64s(cum, rng.Float64()*total)
	}
	return ranks
}

// coverSkews returns the swept skew settings.
func coverSkews() []float64 { return []float64{0, 1.1, 1.5, 2.0} }

// MeasureCover measures what covering buys a federation under
// filter-popularity skew: N subscribers draw from a pool of distinct
// filters by a power law, and the same draw is flooded through a covering
// and a plain overlay (subscription link messages).
//
// The headline effect: with covering the overlay forwards a fraction of
// the subscription messages, the more so as the skew concentrates
// popularity on broad filters.
func MeasureCover(cfg Config) (CoverResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(200_000, cfg.Scale)
	res := CoverResult{Subscribers: subs, Pool: coverPool(subs), OverlayNodes: 15}
	for _, skew := range coverSkews() {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(skew*1000)))
		ranks := powerRanks(rng, skew, subs, res.Pool)

		pt := CoverPoint{Skew: skew}
		var err error
		// Overlay flood: same draw spread over the tree's nodes. The plain
		// network floods every subscription across all links; the covering
		// one prunes forwards shadowed by broader filters.
		if pt.FloodMsgsOff, _, err = coverOverlayRun(cfg, ranks, res.Pool, res.OverlayNodes, false); err != nil {
			return CoverResult{}, err
		}
		if pt.FloodMsgsOn, pt.Suppressed, err = coverOverlayRun(cfg, ranks, res.Pool, res.OverlayNodes, true); err != nil {
			return CoverResult{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// coverOverlayRun floods the drawn filters through a fresh tree overlay
// and reports the subscription link-message count (and suppressions).
func coverOverlayRun(cfg Config, ranks []int, pool, nodes int, coverOn bool) (floodMsgs, suppressed uint64, err error) {
	ranks = ranks[:min(len(ranks), coverOverlayCap)]
	// The registration storm runs unthrottled: spill-queue forwarding means
	// a full inbox can delay but never deadlock the flood, so the old
	// oversized-inbox + periodic-quiescing workaround is gone.
	nw, err := netoverlay.NewNetwork(nodes, netoverlay.TreeEdges(nodes, 2), netoverlay.Options{Cover: coverOn})
	if err != nil {
		return 0, 0, err
	}
	defer nw.Close()
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	noop := func(event.Event) {}
	for _, r := range ranks {
		if _, err := nw.Node(rng.Intn(nodes)).Subscribe(coverFilter(r, pool), noop); err != nil {
			return 0, 0, fmt.Errorf("bench: cover overlay subscribe: %w", err)
		}
	}
	nw.Flush()
	st := nw.Stats()
	return st.SubscriptionMsgs, st.CoverSuppressed, nil
}

func coverTable(cfg Config) (*Table, error) {
	res, err := MeasureCover(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{
			fmt.Sprintf("%d subscribers over %d distinct filters (%d categories of nested bands); skew 0 = uniform draw",
				res.Subscribers, res.Pool, coverCategories),
			fmt.Sprintf("_off/_on: %d-node binary tree overlay without/with covering, first %d registrations",
				res.OverlayNodes, min(res.Subscribers, coverOverlayCap)),
		},
		Columns: []Column{{"skew", "%.2f"}, {"flood_off", "%d"}, {"flood_on", "%d"}, {"suppressed", "%d"}},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []any{p.Skew, p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed})
	}
	return t, nil
}
