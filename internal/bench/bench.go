// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§4), plus the ablations listed in DESIGN.md.
//
// Experiment identifiers:
//
//	table1            echo the workload parameters (Table 1)
//	fig3a … fig3f     subscription-matching time sweeps (Fig. 3 a-f)
//	memory            per-engine memory, capacity within 512 MB (M1)
//	million           engine entries vs subscriber count: covering frontier vs distinct filters (M1 (million))
//	crossover         fine-grained small-N sweep (C4)
//	ablation-reorder  child-reordering effect (A1)
//	ablation-encoding paper vs compact tree encoding (A2)
//	ablation-access   access-clause vs paper candidacy, counted work (A3)
//
// All sweeps measure phase two (subscription matching) only, exactly like
// the paper: phase one is shared between the algorithms. Sizes scale with
// Config.Scale so the same shapes can be regenerated on any machine; the
// default 1/50 scale finishes in seconds, -scale 1 reproduces the paper's
// subscription counts (the DNF baselines then need multi-gigabyte memory,
// which is the paper's point).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/memmodel"
	"noncanon/internal/predicate"
	"noncanon/internal/workload"
)

// Config controls experiment execution.
type Config struct {
	// Out receives the experiment report.
	Out io.Writer
	// Scale multiplies the paper's subscription counts (default 0.02).
	Scale float64
	// Points is the number of sweep points per figure (default 10).
	Points int
	// Trials is the number of measured events per point (default 5).
	Trials int
	// Seed drives workload generation and fulfilled-predicate draws.
	Seed int64
	// Swap, when non-nil, applies the page-swap cost model to every
	// measured duration using each engine's resident size (experiment M2).
	Swap *memmodel.SwapModel
	// CSV switches the output from aligned text to comma-separated values.
	CSV bool
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Points <= 0 {
		c.Points = 10
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
	return c
}

// Experiment is a named, runnable reproduction artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "table1", Title: "Table 1: experiment parameters", Run: RunTable1},
	}
	for _, f := range Fig3Variants() {
		f := f
		exps = append(exps, Experiment{
			ID:    f.ID,
			Title: f.Title(),
			Run:   func(cfg Config) error { return RunFig3(cfg, f) },
		})
	}
	exps = append(exps,
		Experiment{ID: "memory", Title: "M1: memory per engine and 512 MB capacity", Run: RunMemory},
		Experiment{ID: "crossover", Title: "C4: small-N crossover, counting vs non-canonical", Run: RunCrossover},
		Experiment{ID: "ablation-reorder", Title: "A1: subscription-tree child reordering", Run: RunAblationReorder},
		Experiment{ID: "ablation-encoding", Title: "A2: paper vs compact tree encoding", Run: RunAblationEncoding},
		Experiment{ID: "ablation-access", Title: "A3: access-clause vs paper candidacy (counted work)", Run: RunAblationAccess},
		Experiment{ID: "parallel", Title: "P1: concurrent match throughput vs workers (RWMutex vs single lock)", Run: RunParallel},
		Experiment{ID: "batch", Title: "B1: batched publish events/s and p50/p99 vs batch size over TCP (± churn)", Run: RunBatch},
		Experiment{ID: "cover", Title: "C1: filter aggregation + covering flood pruning vs popularity skew", Run: RunCover},
		Experiment{ID: "million", Title: "M1 (million): engine entries track the covering frontier, not the distinct filters, to 1M subscribers", Run: RunMillion},
		Experiment{ID: "federate", Title: "F1: federated broker tree over loopback TCP — events/s and flood msgs vs node count (± cover)", Run: RunFederate},
		Experiment{ID: "chaos", Title: "FC1: chaos federation — bounded spill queues, shedding and slow-peer eviction under a stalled link", Run: RunChaos},
		Experiment{ID: "obs", Title: "O1: metrics overhead on the broker publish path (base vs instrumented, latency quantiles)", Run: RunObs},
	)
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig3Variant names one subplot of Fig. 3.
type Fig3Variant struct {
	ID          string
	PredsPerSub int
	Fulfilled   int
	// PaperMaxSubs is the x-axis limit of the subplot in the paper.
	PaperMaxSubs int
}

// Title renders the subplot caption.
func (f Fig3Variant) Title() string {
	return fmt.Sprintf("Fig. 3(%s): %d predicates, %d fulfilled ones",
		f.ID[len(f.ID)-1:], f.PredsPerSub, f.Fulfilled)
}

// Fig3Variants returns the six subplots of Fig. 3.
func Fig3Variants() []Fig3Variant {
	return []Fig3Variant{
		{ID: "fig3a", PredsPerSub: 6, Fulfilled: 5000, PaperMaxSubs: 5_000_000},
		{ID: "fig3b", PredsPerSub: 8, Fulfilled: 5000, PaperMaxSubs: 4_000_000},
		{ID: "fig3c", PredsPerSub: 10, Fulfilled: 5000, PaperMaxSubs: 2_500_000},
		{ID: "fig3d", PredsPerSub: 6, Fulfilled: 10000, PaperMaxSubs: 5_000_000},
		{ID: "fig3e", PredsPerSub: 8, Fulfilled: 10000, PaperMaxSubs: 4_000_000},
		{ID: "fig3f", PredsPerSub: 10, Fulfilled: 10000, PaperMaxSubs: 2_500_000},
	}
}

// RunTable1 prints the paper's Table 1 with this harness's concrete values.
func RunTable1(cfg Config) error {
	cfg = cfg.withDefaults()
	maxSubs := int(float64(5_000_000) * cfg.Scale)
	fmt.Fprintf(cfg.Out, "Table 1. Parameters in experiments (scale %.3g).\n\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-42s %s\n", "Parameter", "Value")
	rows := [][2]string{
		{"Number of subscriptions", fmt.Sprintf("%d - %d", scaleCount(2000, cfg.Scale), maxSubs)},
		{"Original (unique) predicates per subscription", "6 to 10"},
		{"Subscriptions per subscription after transformation", "8 to 32"},
		{"Used Boolean operators", "AND, OR"},
		{"Matching predicates per event", "5,000 - 10,000"},
	}
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-42s %s\n", r[0], r[1])
	}
	return nil
}

func scaleCount(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 100 {
		s = 100
	}
	return s
}

// sweepPoints returns Points subscription counts from roughly max/Points up
// to max.
func sweepPoints(maxSubs, points int) []int {
	if maxSubs < points {
		points = maxSubs
	}
	out := make([]int, 0, points)
	for i := 1; i <= points; i++ {
		out = append(out, maxSubs*i/points)
	}
	// Dedup (tiny maxSubs can repeat).
	out = uniqueInts(out)
	return out
}

func uniqueInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// engines bundles the three measured algorithms over shared phase-one
// structures. The non-canonical engine runs the paper's association
// (every tree listed under every predicate), so the counted and timed
// columns are the paper's algorithm.
type engines struct {
	reg *predicate.Registry
	idx *index.Index
	nc  *core.Engine
	cnt *counting.Engine // timed with both Classic and Variant
}

func newEngines(coreOpts core.Options) *engines {
	coreOpts.PaperAssociation = true
	reg := predicate.NewRegistry()
	idx := index.New()
	return &engines{
		reg: reg,
		idx: idx,
		nc:  core.New(reg, idx, coreOpts),
		cnt: counting.New(reg, idx, counting.Options{Algorithm: counting.Classic}),
	}
}

// grow registers subscriptions [from, to) of the workload into both engines.
func (es *engines) grow(p workload.Params, from, to int) error {
	for i := from; i < to; i++ {
		expr := p.Sub(i)
		if _, err := es.nc.Subscribe(expr); err != nil {
			return fmt.Errorf("bench: non-canonical subscribe %d: %w", i, err)
		}
		if _, err := es.cnt.Subscribe(expr); err != nil {
			return fmt.Errorf("bench: counting subscribe %d: %w", i, err)
		}
	}
	return nil
}

// timeMatch measures the mean phase-two duration over the draws. One
// unmeasured warmup pass touches the engine's scratch structures (first-use
// growth, cold caches) and a garbage collection drains registration debris,
// so measurements reflect steady-state matching like the paper's repeated
// runs ("we have run our experiments several times", §4).
func timeMatch(fn func([]predicate.ID) []matcher.SubID, draws [][]predicate.ID) time.Duration {
	fn(draws[0])
	runtime.GC()
	start := time.Now()
	for _, d := range draws {
		fn(d)
	}
	return time.Duration(int64(time.Since(start)) / int64(len(draws)))
}

// percentile returns the p-th percentile of sorted durations (nearest
// rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// Fig3Point is one x-position of a Fig. 3 subplot.
type Fig3Point struct {
	Subs            int
	NonCanonical    time.Duration
	CountingVariant time.Duration
	Counting        time.Duration
}

// Fig3Result is a regenerated subplot.
type Fig3Result struct {
	Variant Fig3Variant
	Points  []Fig3Point
}

// MeasureFig3 regenerates one subplot and returns the series.
func MeasureFig3(cfg Config, v Fig3Variant) (Fig3Result, error) {
	cfg = cfg.withDefaults()
	maxSubs := scaleCount(v.PaperMaxSubs, cfg.Scale)
	params := workload.Params{
		NumSubscriptions:  maxSubs,
		PredsPerSub:       v.PredsPerSub,
		FulfilledPerEvent: v.Fulfilled,
		Seed:              cfg.Seed,
	}
	if err := params.Validate(); err != nil {
		return Fig3Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	es := newEngines(core.Options{})
	res := Fig3Result{Variant: v}
	cur := 0
	for _, n := range sweepPoints(maxSubs, cfg.Points) {
		if err := es.grow(params, cur, n); err != nil {
			return Fig3Result{}, err
		}
		cur = n
		// Draw fulfilled sets over the predicates registered so far.
		drawParams := params
		drawParams.NumSubscriptions = n
		draws := make([][]predicate.ID, cfg.Trials)
		for t := range draws {
			draws[t] = drawParams.FulfilledDraw(rng)
		}
		pt := Fig3Point{
			Subs:            n,
			NonCanonical:    timeMatch(es.nc.MatchPredicates, draws),
			CountingVariant: timeMatch(variantFn(es.cnt), draws),
			Counting:        timeMatch(classicFn(es.cnt), draws),
		}
		if cfg.Swap != nil {
			shared := es.reg.MemBytes() + es.idx.MemBytes()
			pt.NonCanonical = cfg.Swap.Apply(pt.NonCanonical, shared+es.nc.MemBytes())
			pt.CountingVariant = cfg.Swap.Apply(pt.CountingVariant, shared+es.cnt.MemBytes())
			pt.Counting = cfg.Swap.Apply(pt.Counting, shared+es.cnt.MemBytes())
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func variantFn(e *counting.Engine) func([]predicate.ID) []matcher.SubID {
	return func(f []predicate.ID) []matcher.SubID {
		return e.MatchPredicatesAlg(counting.Variant, f)
	}
}

func classicFn(e *counting.Engine) func([]predicate.ID) []matcher.SubID {
	return func(f []predicate.ID) []matcher.SubID {
		return e.MatchPredicatesAlg(counting.Classic, f)
	}
}

// RunFig3 regenerates one subplot and prints its series.
func RunFig3(cfg Config, v Fig3Variant) error {
	cfg = cfg.withDefaults()
	res, err := MeasureFig3(cfg, v)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintf(w, "subs,non_canonical_s,counting_variant_s,counting_s\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%d,%.9f,%.9f,%.9f\n", p.Subs,
				p.NonCanonical.Seconds(), p.CountingVariant.Seconds(), p.Counting.Seconds())
		}
		return nil
	}
	fmt.Fprintf(w, "%s — subscription matching time per event (seconds)\n", v.Title())
	fmt.Fprintf(w, "scale: workload of up to %d subscriptions (paper: %d)\n\n",
		scaleCount(v.PaperMaxSubs, cfg.Scale), v.PaperMaxSubs)
	fmt.Fprintf(w, "%-12s %-16s %-18s %-16s\n", "subs", "non-canonical", "counting-variant", "counting")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-12d %-16.9f %-18.9f %-16.9f\n", p.Subs,
			p.NonCanonical.Seconds(), p.CountingVariant.Seconds(), p.Counting.Seconds())
	}
	fmt.Fprintln(w)
	return nil
}
