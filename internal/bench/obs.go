package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"noncanon/internal/broker"
	"noncanon/internal/event"
	"noncanon/internal/obs"
	"noncanon/internal/workload"
)

// ObsPoint is one subscriber count of the metrics-overhead sweep
// (experiment O1): broker publish throughput with no metrics registry
// against the same workload with a live registry — counters, latency
// histograms and the publish-path clock all on. The histogram quantiles
// come straight from the instrumented run's registry, so the experiment
// also demonstrates what turning metrics on buys.
type ObsPoint struct {
	Subs int

	BaseEventsPerSec    float64 // Options.Metrics == nil
	MetricsEventsPerSec float64 // live registry + latency clock
	DeltaPct            float64 // (base-metrics)/base*100; positive = overhead

	MatchP50   time.Duration // broker_match_latency_seconds p50
	MatchP99   time.Duration
	PublishP99 time.Duration // broker_publish_latency_seconds p99
}

// ObsResult is the regenerated metrics-overhead sweep.
type ObsResult struct {
	GOMAXPROCS int
	Events     int // events published per measurement
	Points     []ObsPoint
}

// obsSubCounts returns the swept subscriber counts.
func obsSubCounts() []int { return []int{250, 1000, 2000} }

// obsRounds is how many times the whole event stream is replayed through
// the paired slices; more rounds average more host-load drift away.
const obsRounds = 4

// obsWarmBroker builds a broker with nsubs stock subscriptions and warm
// pools (a slice of the events has already been published).
func obsWarmBroker(opts broker.Options, nsubs int, evs []event.Event, seed int64) (*broker.Broker, error) {
	opts.QueueSize = 4 * nsubs
	b := broker.New(opts)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nsubs; i++ {
		if _, err := b.Subscribe(workload.StockSub(rng), func(ev event.Event) {}); err != nil {
			b.Close()
			return nil, err
		}
	}
	for i := 0; i < len(evs)/10; i++ {
		if _, err := b.Publish(evs[i]); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// obsPublishSlice publishes one slice of events and returns the elapsed
// wall time.
func obsPublishSlice(b *broker.Broker, evs []event.Event) (time.Duration, error) {
	start := time.Now()
	for _, ev := range evs {
		if _, err := b.Publish(ev); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// MeasureObs measures the metrics overhead (experiment O1). Base and
// instrumented runs interleave per point and keep the best of each, so
// ambient machine drift hits both sides alike instead of masquerading as
// instrument cost.
func MeasureObs(cfg Config) (ObsResult, error) {
	cfg = cfg.withDefaults()
	events := 1000 * cfg.Trials
	res := ObsResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Events: events}
	for _, subs := range obsSubCounts() {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(subs)))
		// Events carry an unknown symbol, so no subscription matches: the
		// measured loop is the deterministic part of Publish — engine scan,
		// counters, and (instrumented) the latency clock — without the
		// delivery goroutines' scheduling noise drowning a sub-microsecond
		// delta. The quantile columns still fill from these runs.
		evs := make([]event.Event, events)
		for i := range evs {
			evs[i] = workload.StockEvent(rng, i).Set("sym", "UNLISTED")
		}
		// Paired slice interleaving: both brokers live side by side and
		// the event stream is published in short alternating slices, the
		// per-side wall times accumulating separately. Host-load drift then
		// hits both sides almost identically instead of masquerading as
		// (or hiding) instrument cost; over many rounds the accumulated
		// totals compare a sub-microsecond per-op delta stably even on a
		// shared machine.
		// Two broker pairs, constructed in opposite orders: the engine
		// built second lands in an allocator already grown by the first
		// and measurably benefits from the warmer heap, so measuring one
		// pair alone would bias whichever side was built later. Half the
		// rounds run on each pair and the pooled ratios cancel the bias.
		reg := obs.NewRegistry()
		var brokers [4]*broker.Broker // base, instrumented; then the second pair, built instrumented first
		for i, opts := range []broker.Options{{}, {Metrics: reg}, {Metrics: reg}, {}} {
			b, err := obsWarmBroker(opts, subs, evs, cfg.Seed)
			if err != nil {
				for _, b := range brokers[:i] {
					b.Close()
				}
				return res, err
			}
			brokers[i] = b
		}
		const slices = 40
		sliceLen := len(evs) / slices
		var baseDur []time.Duration
		var ratios []float64
		for r := 0; r < obsRounds; r++ {
			bb, ib := brokers[0], brokers[1]
			if r >= obsRounds/2 {
				bb, ib = brokers[3], brokers[2]
			}
			// Swap which broker goes first each round: the second slice of
			// a pair tends to absorb GC cycles triggered by the first, and
			// without alternation that bias reads as instrument cost.
			b1, b2 := bb, ib
			if r%2 == 1 {
				b1, b2 = ib, bb
			}
			for i := 0; i+sliceLen <= len(evs); i += sliceLen {
				slice := evs[i : i+sliceLen]
				d1, err := obsPublishSlice(b1, slice)
				if err != nil {
					break
				}
				d2, err := obsPublishSlice(b2, slice)
				if err != nil {
					break
				}
				if r%2 == 1 {
					d1, d2 = d2, d1
				}
				baseDur = append(baseDur, d1)
				ratios = append(ratios, float64(d2)/float64(d1))
			}
		}
		for _, b := range brokers {
			b.Close()
		}
		if len(baseDur) == 0 {
			return res, fmt.Errorf("obs: empty measurement at %d subs", subs)
		}
		// The statistic is the median of per-pair duration ratios: the two
		// slices of a pair run milliseconds apart, so host-load drift and
		// CPU steal hit both nearly identically and cancel in the ratio,
		// while a GC cycle or descheduling spike landing in one slice puts
		// that pair in the tail where the median never sees it. Comparing
		// independent per-side medians instead would re-admit everything
		// that moved between their time windows.
		sort.Slice(baseDur, func(i, j int) bool { return baseDur[i] < baseDur[j] })
		sort.Float64s(ratios)
		base := float64(sliceLen) / baseDur[len(baseDur)/2].Seconds()
		ratio := ratios[len(ratios)/2]
		instrumented := base / ratio
		p := ObsPoint{
			Subs:                subs,
			BaseEventsPerSec:    base,
			MetricsEventsPerSec: instrumented,
			DeltaPct:            (base - instrumented) / base * 100,
		}
		if s, ok := reg.Get("broker_match_latency_seconds"); ok {
			p.MatchP50 = s.Hist.Quantile(0.50)
			p.MatchP99 = s.Hist.Quantile(0.99)
		}
		if s, ok := reg.Get("broker_publish_latency_seconds"); ok {
			p.PublishP99 = s.Hist.Quantile(0.99)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func obsTable(cfg Config) (*Table, error) {
	res, err := MeasureObs(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS %d; stock events, %d per measurement, median of paired alternating slices", res.GOMAXPROCS, res.Events),
			"the instrumented runs add two clock reads and a handful of atomic increments per publish;",
			"delta_pct is the price of knowing the latency quantiles on its right",
		},
		Columns: []Column{{"subs", "%d"}, {"base_ev_s", "%.1f"}, {"metrics_ev_s", "%.1f"}, {"delta_pct", "%.2f"},
			{"match_p50_us", "%.1f"}, {"match_p99_us", "%.1f"}, {"publish_p99_us", "%.1f"}},
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []any{p.Subs, p.BaseEventsPerSec, p.MetricsEventsPerSec, p.DeltaPct,
			us(p.MatchP50), us(p.MatchP99), us(p.PublishP99)})
	}
	return t, nil
}
