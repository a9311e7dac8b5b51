package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
)

// CoverPoint is one popularity-skew setting of the covering/aggregation
// sweep (experiment C1). A skew of 0 draws filters uniformly from the
// pool; larger values draw by a Zipf law with that exponent (popular
// filters are both frequent and broad).
type CoverPoint struct {
	Skew float64

	// Broker with and without Options.Aggregate (covering aggregation):
	// engine entries after all subscribes, subscribe throughput, and
	// publish latency.
	EngineOff     int
	EngineOn      int
	SubsPerSecOff float64
	SubsPerSecOn  float64
	P50Off        time.Duration
	P99Off        time.Duration
	P50On         time.Duration
	P99On         time.Duration

	// Overlay flood with and without netoverlay.Options.Cover:
	// subscription link messages for the same registration sequence, and how many forwards
	// covering pruned.
	FloodMsgsOff uint64
	FloodMsgsOn  uint64
	Suppressed   uint64
}

// CoverResult is the regenerated covering sweep.
type CoverResult struct {
	Subscribers  int
	Pool         int
	Categories   int
	OverlayNodes int
	Points       []CoverPoint
}

// coverCategories is the number of filter categories in the pool; filters
// within a category are nested price bands, so low Zipf ranks are broad
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

// coverRanks draws the filter rank of every subscriber under the given
// skew (0 = uniform, otherwise the Zipf exponent).
func coverRanks(rng *rand.Rand, skew float64, n, pool int) []int {
	ranks := make([]int, n)
	if skew == 0 {
		for i := range ranks {
			ranks[i] = rng.Intn(pool)
		}
		return ranks
	}
	z := rand.NewZipf(rng, skew, 1, uint64(pool-1))
	for i := range ranks {
		ranks[i] = int(z.Uint64())
	}
	return ranks
}

// coverSkews returns the swept skew settings.
func coverSkews() []float64 { return []float64{0, 1.1, 1.5, 2.0} }

// MeasureCover measures what subscription aggregation and covering buy
// under filter-popularity skew: N subscribers draw from a pool of distinct
// filters by a Zipf law, and the same draw is registered into an
// aggregating and a non-aggregating broker (engine size, subscribe
// throughput, publish latency) and flooded through a covering and a plain
// overlay (subscription link messages).
//
// The headline effects: with aggregation the engine grows with the
// covering frontier of the filters drawn, not with the subscriber count,
// and with covering the overlay forwards a fraction of the subscription
// messages — both improving as the skew concentrates popularity on broad
// filters.
func MeasureCover(cfg Config) (CoverResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(200_000, cfg.Scale)
	pool := subs / 16
	if pool < coverCategories {
		pool = coverCategories
	}
	const overlayNodes = 15

	res := CoverResult{
		Subscribers:  subs,
		Pool:         pool,
		Categories:   coverCategories,
		OverlayNodes: overlayNodes,
	}
	for _, skew := range coverSkews() {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(skew*1000)))
		ranks := coverRanks(rng, skew, subs, pool)

		pt := CoverPoint{Skew: skew}
		var err error
		pt.EngineOff, pt.SubsPerSecOff, pt.P50Off, pt.P99Off, err =
			coverBrokerRun(cfg, ranks, pool, false)
		if err != nil {
			return CoverResult{}, err
		}
		pt.EngineOn, pt.SubsPerSecOn, pt.P50On, pt.P99On, err =
			coverBrokerRun(cfg, ranks, pool, true)
		if err != nil {
			return CoverResult{}, err
		}

		// Overlay flood: same draw spread over the tree's nodes. The plain
		// network floods every subscription across all links; the covering
		// one prunes forwards shadowed by broader filters.
		pt.FloodMsgsOff, _, err = coverOverlayRun(cfg, ranks, pool, overlayNodes, false)
		if err != nil {
			return CoverResult{}, err
		}
		pt.FloodMsgsOn, pt.Suppressed, err = coverOverlayRun(cfg, ranks, pool, overlayNodes, true)
		if err != nil {
			return CoverResult{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// coverBrokerRun registers the drawn filters into a fresh broker and
// measures engine entries, subscribe throughput and publish latency.
func coverBrokerRun(cfg Config, ranks []int, pool int, aggregate bool) (engineEntries int, subsPerSec float64, p50, p99 time.Duration, err error) {
	br := broker.New(broker.Options{QueueSize: 1024, Aggregate: aggregate})
	defer br.Close()
	noop := func(event.Event) {}

	t0 := time.Now()
	for _, r := range ranks {
		if _, err := br.Subscribe(coverFilter(r, pool), noop); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: cover subscribe: %w", err)
		}
	}
	subDur := time.Since(t0)
	if subDur <= 0 {
		subDur = time.Nanosecond
	}
	subsPerSec = float64(len(ranks)) / subDur.Seconds()
	engineEntries = br.Stats().FrontierFilters

	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	publishes := 64 * cfg.Trials
	durs := make([]time.Duration, 0, publishes)
	if _, err := br.Publish(coverEvent(rng, pool)); err != nil { // warmup
		return 0, 0, 0, 0, err
	}
	for i := 0; i < publishes; i++ {
		ev := coverEvent(rng, pool)
		c0 := time.Now()
		if _, err := br.Publish(ev); err != nil {
			return 0, 0, 0, 0, err
		}
		durs = append(durs, time.Since(c0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return engineEntries, subsPerSec, percentile(durs, 50), percentile(durs, 99), nil
}

// coverOverlayRun floods the drawn filters through a fresh tree overlay
// and reports the subscription link-message count (and suppressions).
func coverOverlayRun(cfg Config, ranks []int, pool, nodes int, coverOn bool) (floodMsgs, suppressed uint64, err error) {
	// Overlay flooding is O(subs × nodes); cap the registration count so
	// the sweep stays proportionate to the broker side.
	if len(ranks) > 4096 {
		ranks = ranks[:4096]
	}
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

// RunCover regenerates the covering sweep and prints its series.
func RunCover(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureCover(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintf(w, "skew,engine_off,engine_on,subs_s_off,subs_s_on,pub_p50_off_s,pub_p99_off_s,pub_p50_on_s,pub_p99_on_s,flood_off,flood_on,suppressed\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%.2f,%d,%d,%.1f,%.1f,%.9f,%.9f,%.9f,%.9f,%d,%d,%d\n",
				p.Skew, p.EngineOff, p.EngineOn, p.SubsPerSecOff, p.SubsPerSecOn,
				p.P50Off.Seconds(), p.P99Off.Seconds(), p.P50On.Seconds(), p.P99On.Seconds(),
				p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed)
		}
		return nil
	}
	fmt.Fprintf(w, "C1: subscription aggregation and covering vs filter-popularity skew\n")
	fmt.Fprintf(w, "workload: %d subscribers over %d distinct filters (%d categories of nested bands);\n",
		res.Subscribers, res.Pool, res.Categories)
	fmt.Fprintf(w, "overlay: %d-node binary tree, first %d registrations; skew 0 = uniform draw\n\n",
		res.OverlayNodes, min(res.Subscribers, 4096))
	fmt.Fprintf(w, "%-6s | %-18s| %-22s| %-32s| %s\n",
		"", "engine entries", "subscribe ops/s", "publish p50/p99", "overlay flood msgs")
	fmt.Fprintf(w, "%-6s | %-8s %-9s| %-10s %-11s| %-15s %-16s| %-8s %-8s %-8s\n",
		"skew", "plain", "aggr", "plain", "aggr", "plain", "aggr", "plain", "cover", "pruned")
	for _, p := range res.Points {
		off := fmtDur(p.P50Off) + "/" + fmtDur(p.P99Off)
		on := fmtDur(p.P50On) + "/" + fmtDur(p.P99On)
		fmt.Fprintf(w, "%-6.2f | %-8d %-9d| %-10.0f %-11.0f| %-15s %-16s| %-8d %-8d %-8d\n",
			p.Skew, p.EngineOff, p.EngineOn, p.SubsPerSecOff, p.SubsPerSecOn,
			off, on, p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed)
	}
	fmt.Fprintln(w)
	return nil
}
