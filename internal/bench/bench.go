// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§4), plus the ablations and extensions listed
// in EXPERIMENTS.md.
//
// Paper experiment identifiers:
//
//	table1            echo the workload parameters (Table 1)
//	fig3a … fig3f     subscription-matching time sweeps (Fig. 3 a-f)
//	memory            per-engine memory, capacity within 512 MB (M1)
//	crossover         fine-grained small-N sweep (C4)
//	ablation-reorder  child-reordering effect (A1)
//	ablation-encoding paper vs compact tree encoding (A2)
//	ablation-access   access-clause vs paper candidacy, counted work (A3)
//
// Every experiment builds one Table, which prints as aligned text, CSV or
// JSON. All sweeps measure phase two (subscription matching) only, exactly
// like the paper: phase one is shared between the algorithms. Sizes scale
// with Config.Scale so the same shapes can be regenerated on any machine;
// the default 1/50 scale finishes in seconds, -scale 1 reproduces the
// paper's subscription counts (the DNF baselines then need multi-gigabyte
// memory, which is the paper's point).
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
	table func(cfg Config) (*Table, error)
}

// Run builds the experiment's table and prints it under the title, or as
// CSV when cfg.CSV is set.
func (e Experiment) Run(cfg Config) error {
	cfg = cfg.withDefaults()
	t, err := e.table(cfg)
	if err != nil {
		return err
	}
	return t.print(cfg.Out, e.Title, cfg.CSV)
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "table1", Title: "Table 1: experiment parameters", table: table1Table},
	}
	for _, f := range Fig3Variants() {
		f := f
		exps = append(exps, Experiment{
			ID:    f.ID,
			Title: f.Title(),
			table: func(cfg Config) (*Table, error) { return fig3Table(cfg, f) },
		})
	}
	return append(exps,
		Experiment{ID: "memory", Title: "M1: memory per engine and 512 MB capacity", table: memoryTable},
		Experiment{ID: "crossover", Title: "C4: small-N crossover, counting vs non-canonical", table: crossoverTable},
		Experiment{ID: "ablation-reorder", Title: "A1: subscription-tree child reordering", table: reorderTable},
		Experiment{ID: "ablation-encoding", Title: "A2: paper vs compact tree encoding", table: encodingTable},
		Experiment{ID: "ablation-access", Title: "A3: access-clause vs paper candidacy (counted work)", table: accessTable},
		Experiment{ID: "batch", Title: "B1: batched publish events/s and p50/p99 vs batch size over TCP (± churn)", table: batchTable},
		Experiment{ID: "federate", Title: "F1: federated broker tree over loopback TCP — events/s and flood msgs vs node count (± cover)", table: federateTable},
		Experiment{ID: "obs", Title: "O1: metrics overhead on the broker publish path (base vs instrumented, latency quantiles)", table: obsTable},
	)
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

func table1Table(cfg Config) (*Table, error) {
	return &Table{
		Notes:   []string{fmt.Sprintf("scale %.3g of the paper's subscription counts", cfg.Scale)},
		Columns: []Column{{"parameter", "%s"}, {"value", "%s"}},
		Rows: [][]any{
			{"Number of subscriptions", fmt.Sprintf("%d - %d", scaleCount(2000, cfg.Scale), int(5_000_000*cfg.Scale))},
			{"Original (unique) predicates per subscription", "6 to 10"},
			{"Subscriptions per subscription after transformation", "8 to 32"},
			{"Used Boolean operators", "AND, OR"},
			{"Matching predicates per event", "5,000 - 10,000"},
		},
	}, nil
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
	return uniqueInts(out)
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

func newEngines() *engines {
	reg := predicate.NewRegistry()
	idx := index.New()
	return &engines{
		reg: reg,
		idx: idx,
		nc:  core.New(reg, idx, core.Options{PaperAssociation: true}),
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

// sweep is the one driver of the Fig. 3 family: it grows one engine
// bundle through the given subscription counts of the workload and hands
// each point `trials` fulfilled draws over the predicates registered so
// far.
func sweep(p workload.Params, sizes []int, trials int, rng *rand.Rand, at func(es *engines, n int, draws [][]predicate.ID)) error {
	if err := p.Validate(); err != nil {
		return err
	}
	es := newEngines()
	cur := 0
	for _, n := range sizes {
		if err := es.grow(p, cur, n); err != nil {
			return err
		}
		cur = n
		drawParams := p
		drawParams.NumSubscriptions = n
		draws := make([][]predicate.ID, trials)
		for t := range draws {
			draws[t] = drawParams.FulfilledDraw(rng)
		}
		at(es, n, draws)
	}
	return nil
}

// Fig3Point is one x-position of a Fig. 3 subplot.
type Fig3Point struct {
	Subs            int
	NonCanonical    time.Duration
	CountingVariant time.Duration
	Counting        time.Duration
}

// timedSweep times phase two of the three algorithms at `points` sweep
// points up to p.NumSubscriptions, applying cfg.Swap when set.
func timedSweep(cfg Config, p workload.Params, points int, seed int64) ([]Fig3Point, error) {
	var pts []Fig3Point
	err := sweep(p, sweepPoints(p.NumSubscriptions, points), cfg.Trials, rand.New(rand.NewSource(seed)),
		func(es *engines, n int, draws [][]predicate.ID) {
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
			pts = append(pts, pt)
		})
	return pts, err
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

// Fig3Result is a regenerated subplot.
type Fig3Result struct {
	Variant Fig3Variant
	Points  []Fig3Point
}

// fig3Params is a subplot's workload at maxSubs subscriptions.
func fig3Params(v Fig3Variant, maxSubs int, seed int64) workload.Params {
	return workload.Params{
		NumSubscriptions:  maxSubs,
		PredsPerSub:       v.PredsPerSub,
		FulfilledPerEvent: v.Fulfilled,
		Seed:              seed,
	}
}

// MeasureFig3 regenerates one subplot and returns the series.
func MeasureFig3(cfg Config, v Fig3Variant) (Fig3Result, error) {
	cfg = cfg.withDefaults()
	p := fig3Params(v, scaleCount(v.PaperMaxSubs, cfg.Scale), cfg.Seed)
	pts, err := timedSweep(cfg, p, cfg.Points, cfg.Seed+1)
	return Fig3Result{Variant: v, Points: pts}, err
}

// CrossoverResult captures the small-N sweep of claim C4: "for small
// subscription numbers the counting algorithm behaves most efficient …
// due to the small number of required comparisons" (paper §4.1, e.g. up to
// ~700,000 subscriptions in Fig. 3(d)).
type CrossoverResult struct {
	Points []Fig3Point
	// CrossoverSubs is the start of the stable suffix of sweep points where
	// the non-canonical engine is at least as fast as the classic counting
	// algorithm, or 0 if counting still wins at the largest point. The
	// suffix rule tolerates single-point timing noise.
	CrossoverSubs int
}

// MeasureCrossover sweeps small subscription counts at fine granularity:
// Fig. 3(d)'s workload up to the scaled equivalent of the paper's ~700k
// crossover region, with doubled point density.
func MeasureCrossover(cfg Config) (CrossoverResult, error) {
	cfg = cfg.withDefaults()
	p := fig3Params(Fig3Variants()[3], scaleCount(700_000, cfg.Scale), cfg.Seed)
	pts, err := timedSweep(cfg, p, cfg.Points*2, cfg.Seed+2)
	res := CrossoverResult{Points: pts}
	for i := len(pts) - 1; i >= 0 && pts[i].NonCanonical <= pts[i].Counting; i-- {
		res.CrossoverSubs = pts[i].Subs
	}
	return res, err
}

func pointsTable(pts []Fig3Point, notes ...string) *Table {
	t := &Table{Notes: notes, Columns: []Column{
		{"subs", "%d"}, {"non_canonical_s", "%.9f"}, {"counting_variant_s", "%.9f"}, {"counting_s", "%.9f"},
	}}
	for _, p := range pts {
		t.Rows = append(t.Rows, []any{p.Subs, p.NonCanonical.Seconds(), p.CountingVariant.Seconds(), p.Counting.Seconds()})
	}
	return t
}

func fig3Table(cfg Config, v Fig3Variant) (*Table, error) {
	res, err := MeasureFig3(cfg, v)
	if err != nil {
		return nil, err
	}
	return pointsTable(res.Points,
		"phase-two matching time per event (s): non-canonical, counting variant, classic counting",
		fmt.Sprintf("scale: workload of up to %d subscriptions (paper: %d)", scaleCount(v.PaperMaxSubs, cfg.Scale), v.PaperMaxSubs)), nil
}

func crossoverTable(cfg Config) (*Table, error) {
	res, err := MeasureCrossover(cfg)
	if err != nil {
		return nil, err
	}
	verdict := "counting still fastest at the largest swept point (paper: crossover below ~700k unscaled)"
	if res.CrossoverSubs > 0 {
		verdict = fmt.Sprintf("non-canonical overtakes counting at ~%d subscriptions", res.CrossoverSubs)
	}
	return pointsTable(res.Points, "Fig. 3(d) workload (6 predicates, 10000 fulfilled) over the scaled small-N region", verdict), nil
}
