package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/memmodel"
)

// MillionPoint is one (subscriber count, skew) cell of the M1 (million)
// sweep: one power-law filter draw registered into an aggregating broker
// (Options.Aggregate: one engine entry per covering-frontier filter).
type MillionPoint struct {
	Subs int
	Skew float64

	// FlatEngine is the number of distinct live filters: the engine entries
	// identical-filter interning alone would hold.
	FlatEngine int
	// DAGEngine is the covering frontier: the engine entries the broker
	// holds.
	DAGEngine  int
	DAGCovered int // subscribers attached beneath a coverer
	SubsSec    float64
	P50        time.Duration
	P99        time.Duration
	Heap       int
}

// MillionResult is the regenerated M1 (million) sweep.
type MillionResult struct {
	Counts []int
	Points []MillionPoint
}

// millionCounts returns the swept subscriber counts (10k, 100k, 1M at
// scale 1).
func millionCounts(scale float64) []int {
	return uniqueInts([]int{
		scaleCount(10_000, scale),
		scaleCount(100_000, scale),
		scaleCount(1_000_000, scale),
	})
}

// millionSkews returns the swept power-law exponents. The flatter settings
// are the stress case for DAG aggregation — the draw spreads across the
// pool and the poset holds many distinct filters — while 2.0 is the regime
// the paper's covering argument targets: popularity concentrated on broad
// filters.
func millionSkews() []float64 { return []float64{0.5, 1.0, 2.0} }

// millionRanks draws every subscriber's filter rank from a finite-pool
// power law with weight 1/(rank+1)^skew. rand.NewZipf only supports
// exponents strictly above 1, and the sweep needs 0.5 and 1.0, so draws
// invert a cumulative weight table instead.
func millionRanks(rng *rand.Rand, skew float64, n, pool int) []int {
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

// millionBrokerRun registers the drawn filters into a fresh aggregating
// broker and measures engine entries, subscribe throughput, live heap
// after registration, and publish latency. The pool reuses the C1
// nested-band shape (coverFilter), so within a category every broader band
// provably covers the narrower ones.
func millionBrokerRun(cfg Config, ranks []int, pool int) (pt MillionPoint, err error) {
	// QueueSize 1 keeps what a burst can queue per subscriber as small as
	// possible: the heap column is the engine, the poset and the
	// per-subscriber fixed cost (subscription and handler sink, no
	// goroutine or queue while idle).
	br := broker.New(broker.Options{QueueSize: 1, Aggregate: true})
	defer br.Close()
	noop := func(event.Event) {}

	t0 := time.Now()
	for _, r := range ranks {
		if _, err := br.Subscribe(coverFilter(r, pool), noop); err != nil {
			return pt, fmt.Errorf("bench: million subscribe: %w", err)
		}
	}
	subDur := time.Since(t0)
	if subDur <= 0 {
		subDur = time.Nanosecond
	}
	st := br.Stats()
	pt.Heap = memmodel.HeapInuseBytes()

	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	publishes := 64 * cfg.Trials
	durs := make([]time.Duration, 0, publishes)
	if _, err := br.Publish(coverEvent(rng, pool)); err != nil { // warmup
		return pt, err
	}
	for i := 0; i < publishes; i++ {
		ev := coverEvent(rng, pool)
		c0 := time.Now()
		if _, err := br.Publish(ev); err != nil {
			return pt, err
		}
		durs = append(durs, time.Since(c0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })

	pt.FlatEngine = st.DistinctFilters
	pt.DAGEngine = st.FrontierFilters
	pt.DAGCovered = st.CoveredSubscribers
	pt.SubsSec = float64(len(ranks)) / subDur.Seconds()
	pt.P50, pt.P99 = percentile(durs, 50), percentile(durs, 99)
	return pt, nil
}

// MeasureMillion measures how engine size scales with subscriber count
// under covering aggregation (experiment M1 (million)). For every (count,
// skew) cell, one power-law draw over a nested-band filter pool is
// registered into an aggregating broker. The headline claim: the distinct
// filters drawn — what identical-filter interning alone would keep in the
// engine — keep growing with the subscriber count until the pool is
// exhausted, while the engine entries track the covering frontier, which
// is bounded by the pool's band structure and goes sublinear much earlier,
// the more so the more the skew concentrates draws on broad filters.
func MeasureMillion(cfg Config) (MillionResult, error) {
	cfg = cfg.withDefaults()
	res := MillionResult{Counts: millionCounts(cfg.Scale)}
	for _, subs := range res.Counts {
		pool := subs / 16
		if pool < coverCategories {
			pool = coverCategories
		}
		for _, skew := range millionSkews() {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(subs) + int64(skew*1000)))
			ranks := millionRanks(rng, skew, subs, pool)
			pt, err := millionBrokerRun(cfg, ranks, pool)
			if err != nil {
				return MillionResult{}, err
			}
			pt.Subs, pt.Skew = subs, skew
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// RunMillion regenerates the M1 (million) sweep and prints its series.
func RunMillion(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureMillion(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintf(w, "subs,skew,flat_engine,dag_engine,dag_covered,subs_s,pub_p50_s,pub_p99_s,heap_bytes\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%d,%.2f,%d,%d,%d,%.1f,%.9f,%.9f,%d\n",
				p.Subs, p.Skew, p.FlatEngine, p.DAGEngine, p.DAGCovered,
				p.SubsSec, p.P50.Seconds(), p.P99.Seconds(), p.Heap)
		}
		return nil
	}
	fmt.Fprintf(w, "M1 (million): engine size under covering aggregation\n")
	fmt.Fprintf(w, "workload: power-law draws over nested band pools (pool = subs/16, %d categories);\n", coverCategories)
	fmt.Fprintf(w, "flat = distinct filters (what identical-filter interning would hold), dag = covering-frontier engine entries\n\n")
	fmt.Fprintf(w, "%-9s %-5s| %-16s %-8s| %-12s| %-17s| %s\n",
		"subs", "skew", "engine flat/dag", "covered", "subscribe/s", "publish p50/p99", "heap")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-9d %-5.2f| %-7d %-8d %-8d| %-12.0f| %-17s| %s\n",
			p.Subs, p.Skew, p.FlatEngine, p.DAGEngine, p.DAGCovered,
			p.SubsSec, fmtDur(p.P50)+"/"+fmtDur(p.P99), memmodel.FormatBytes(p.Heap))
	}
	fmt.Fprintln(w)
	return nil
}
