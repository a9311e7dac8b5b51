package bench

import (
	"fmt"
	"math/rand"

	"noncanon/internal/broker"
)

// MillionPoint is one (subscriber count, skew) cell of the M1 (million)
// sweep: one power-law filter draw registered into an aggregating broker
// (Options.Aggregate: one engine entry per covering-frontier filter).
type MillionPoint struct {
	Subs int
	Skew float64
	BrokerRun
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

// MeasureMillion measures how engine size scales with subscriber count
// under covering aggregation (experiment M1 (million)). For every (count,
// skew) cell, one power-law draw over C1's nested-band filter pool is
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
		pool := coverPool(subs)
		for _, skew := range millionSkews() {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(subs) + int64(skew*1000)))
			// QueueSize 1 keeps what a burst can queue per subscriber as
			// small as possible: the heap column is the engine, the poset
			// and the per-subscriber fixed cost (subscription and handler
			// sink, no goroutine or queue while idle).
			run, err := runBroker(cfg, broker.Options{QueueSize: 1, Aggregate: true}, powerRanks(rng, skew, subs, pool), pool)
			if err != nil {
				return MillionResult{}, err
			}
			res.Points = append(res.Points, MillionPoint{Subs: subs, Skew: skew, BrokerRun: run})
		}
	}
	return res, nil
}

func millionTable(cfg Config) (*Table, error) {
	res, err := MeasureMillion(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{
			fmt.Sprintf("power-law draws over nested band pools (pool = subs/16, %d categories) into an aggregating broker;", coverCategories),
			"flat = distinct filters (what identical-filter interning would hold), dag = covering-frontier engine entries",
		},
		Columns: []Column{{"subs", "%d"}, {"skew", "%.2f"}, {"flat_engine", "%d"}, {"dag_engine", "%d"}, {"dag_covered", "%d"},
			{"subs_s", "%.1f"}, {"pub_p50_s", "%.9f"}, {"pub_p99_s", "%.9f"}, {"heap_bytes", "%d"}},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []any{p.Subs, p.Skew, p.Distinct, p.Engine, p.Covered,
			p.SubsPerSec, p.P50.Seconds(), p.P99.Seconds(), p.Heap})
	}
	return t, nil
}
