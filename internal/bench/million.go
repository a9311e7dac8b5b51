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
// sweep: the same power-law filter draw registered into a flat-aggregating
// broker (Options.Aggregate: one engine entry per distinct filter) and a
// DAG-aggregating broker (Options.AggregateDAG: one engine entry per
// covering-frontier filter).
type MillionPoint struct {
	Subs int
	Skew float64

	// Flat aggregation: engine entries equal distinct filters.
	FlatEngine  int
	FlatSubsSec float64
	FlatP50     time.Duration
	FlatP99     time.Duration
	FlatHeap    int

	// DAG aggregation: engine entries equal the covering frontier.
	DAGEngine   int // frontier filters — the engine entry count
	DAGDistinct int // poset nodes (distinct live filters)
	DAGCovered  int // subscribers attached beneath a coverer
	DAGSubsSec  float64
	DAGP50      time.Duration
	DAGP99      time.Duration
	DAGHeap     int
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

// millionBrokerRun registers the drawn filters into a fresh broker and
// measures engine entries, subscribe throughput, live heap after
// registration, and publish latency. The pool reuses the C1 nested-band
// shape (coverFilter), so within a category every broader band provably
// covers the narrower ones.
func millionBrokerRun(cfg Config, ranks []int, pool int, dagMode bool) (pt MillionPoint, err error) {
	// QueueSize 1 keeps what a burst can queue per subscriber as small as
	// possible; the per-subscriber fixed cost (subscription and handler
	// sink, no goroutine or queue while idle) is identical across the two
	// modes, so the flat-vs-DAG heap delta isolates the engine and poset
	// structures.
	br := broker.New(broker.Options{QueueSize: 1, Aggregate: !dagMode, AggregateDAG: dagMode})
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
	heap := memmodel.HeapInuseBytes()

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

	subsSec := float64(len(ranks)) / subDur.Seconds()
	p50, p99 := percentile(durs, 50), percentile(durs, 99)
	if dagMode {
		pt.DAGEngine = st.FrontierFilters
		pt.DAGDistinct = st.DistinctFilters
		pt.DAGCovered = st.CoveredSubscribers
		pt.DAGSubsSec, pt.DAGP50, pt.DAGP99, pt.DAGHeap = subsSec, p50, p99, heap
	} else {
		pt.FlatEngine = st.DistinctFilters
		pt.FlatSubsSec, pt.FlatP50, pt.FlatP99, pt.FlatHeap = subsSec, p50, p99, heap
	}
	return pt, nil
}

// MeasureMillion measures how engine size scales with subscriber count
// under the two aggregation modes (experiment M1 (million)). For every
// (count, skew) cell, one power-law draw over a nested-band filter pool is
// registered into a flat-aggregating and a DAG-aggregating broker. The
// headline claim: flat engine entries track the number of distinct filters
// drawn — which keeps growing with the subscriber count until the pool is
// exhausted — while DAG engine entries track the covering frontier, which
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

			flat, err := millionBrokerRun(cfg, ranks, pool, false)
			if err != nil {
				return MillionResult{}, err
			}
			dag, err := millionBrokerRun(cfg, ranks, pool, true)
			if err != nil {
				return MillionResult{}, err
			}
			pt := dag
			pt.Subs, pt.Skew = subs, skew
			pt.FlatEngine, pt.FlatSubsSec, pt.FlatHeap = flat.FlatEngine, flat.FlatSubsSec, flat.FlatHeap
			pt.FlatP50, pt.FlatP99 = flat.FlatP50, flat.FlatP99
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
		fmt.Fprintf(w, "subs,skew,flat_engine,dag_engine,dag_distinct,dag_covered,flat_subs_s,dag_subs_s,flat_pub_p50_s,flat_pub_p99_s,dag_pub_p50_s,dag_pub_p99_s,flat_heap_bytes,dag_heap_bytes\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%d,%.2f,%d,%d,%d,%d,%.1f,%.1f,%.9f,%.9f,%.9f,%.9f,%d,%d\n",
				p.Subs, p.Skew, p.FlatEngine, p.DAGEngine, p.DAGDistinct, p.DAGCovered,
				p.FlatSubsSec, p.DAGSubsSec,
				p.FlatP50.Seconds(), p.FlatP99.Seconds(), p.DAGP50.Seconds(), p.DAGP99.Seconds(),
				p.FlatHeap, p.DAGHeap)
		}
		return nil
	}
	fmt.Fprintf(w, "M1 (million): engine size under flat vs covering-DAG aggregation\n")
	fmt.Fprintf(w, "workload: power-law draws over nested band pools (pool = subs/16, %d categories);\n", coverCategories)
	fmt.Fprintf(w, "flat = one engine entry per distinct filter, dag = one per covering-frontier filter\n\n")
	fmt.Fprintf(w, "%-9s %-5s| %-16s %-9s %-8s| %-21s| %-33s| %s\n",
		"subs", "skew", "engine flat/dag", "distinct", "covered", "subscribe ops/s", "publish p50/p99", "heap flat/dag")
	for _, p := range res.Points {
		flatLat := fmtDur(p.FlatP50) + "/" + fmtDur(p.FlatP99)
		dagLat := fmtDur(p.DAGP50) + "/" + fmtDur(p.DAGP99)
		fmt.Fprintf(w, "%-9d %-5.2f| %-7d %-8d %-9d %-8d| %-10.0f %-10.0f| %-16s %-16s| %s / %s\n",
			p.Subs, p.Skew, p.FlatEngine, p.DAGEngine, p.DAGDistinct, p.DAGCovered,
			p.FlatSubsSec, p.DAGSubsSec, flatLat, dagLat,
			memmodel.FormatBytes(p.FlatHeap), memmodel.FormatBytes(p.DAGHeap))
	}
	fmt.Fprintln(w)
	return nil
}
