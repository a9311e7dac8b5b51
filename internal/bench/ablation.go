package bench

import (
	"fmt"
	"math/rand"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/index"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
	"noncanon/internal/workload"
)

// unbalancedSub builds a deliberately lopsided subscription for the
// reordering ablation: a wide OR over many predicates ANDed with a single
// cheap pair. Authored big-child-first, so an evaluator without reordering
// always wades through the wide OR even when the cheap pair already decides
// the conjunction.
func unbalancedSub(i, widePreds int) boolexpr.Expr {
	wide := make([]boolexpr.Expr, widePreds)
	for k := range wide {
		wide[k] = boolexpr.Pred(workload.Attr(k), predicate.Eq, int64(i)*int64(widePreds)+int64(k))
	}
	cheap := boolexpr.NewOr(
		boolexpr.Pred("g", predicate.Gt, int64(i)*4+1),
		boolexpr.Pred("g", predicate.Le, int64(i)*4),
	)
	return boolexpr.NewAnd(boolexpr.NewOr(wide...), cheap)
}

// AblationReorderResult compares evaluation with and without cheapest-first
// child reordering (A1; the paper's §3.2 future-work optimisation).
type AblationReorderResult struct {
	Subs            int
	PlainTime       time.Duration
	ReorderedTime   time.Duration
	PlainLeaves     float64 // mean leaves inspected per candidate evaluation
	ReorderedLeaves float64
}

// MeasureAblationReorder builds two non-canonical engines over the same
// unbalanced workload, one with Reorder enabled, and times phase two.
func MeasureAblationReorder(cfg Config) (AblationReorderResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(500_000, cfg.Scale)
	const widePreds = 12
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	build := func(reorder bool) (*core.Engine, *predicate.Registry) {
		reg := predicate.NewRegistry()
		idx := index.New()
		eng := core.New(reg, idx, core.Options{Reorder: reorder, PaperAssociation: true})
		return eng, reg
	}
	plain, _ := build(false)
	reordered, _ := build(true)
	for i := 0; i < subs; i++ {
		expr := unbalancedSub(i, widePreds)
		if _, err := plain.Subscribe(expr); err != nil {
			return AblationReorderResult{}, err
		}
		if _, err := reordered.Subscribe(expr); err != nil {
			return AblationReorderResult{}, err
		}
	}
	// Fulfilled draws over the per-engine universe: both engines intern the
	// same predicates in the same order, so IDs coincide. Cap the draw at a
	// quarter of the universe so small-scale runs keep realistic predicate
	// selectivity (a saturated draw makes every first leaf match and hides
	// the ordering effect).
	universe := subs * (widePreds + 2)
	k := 5000
	if k > universe/4 {
		k = universe / 4
	}
	if k < 1 {
		k = 1
	}
	draws := make([][]predicate.ID, cfg.Trials)
	for t := range draws {
		draws[t] = drawIDs(rng, universe, k)
	}
	res := AblationReorderResult{Subs: subs}
	res.PlainTime = timeMatch(plain.MatchPredicates, draws)
	res.ReorderedTime = timeMatch(reordered.MatchPredicates, draws)
	res.PlainLeaves = meanLeaves(plain, draws)
	res.ReorderedLeaves = meanLeaves(reordered, draws)
	return res, nil
}

func drawIDs(rng *rand.Rand, universe, k int) []predicate.ID {
	if k > universe {
		k = universe
	}
	out := make([]predicate.ID, 0, k)
	seen := make(map[predicate.ID]struct{}, k)
	for len(out) < k {
		id := predicate.ID(rng.Int63n(int64(universe)) + 1)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// meanLeaves estimates leaves inspected per candidate evaluation using the
// instrumented evaluator over a sample of candidate subscriptions.
func meanLeaves(e *core.Engine, draws [][]predicate.ID) float64 {
	total, evals := 0, 0
	for _, d := range draws {
		leaves, n := e.InstrumentedMatch(d)
		total += leaves
		evals += n
	}
	if evals == 0 {
		return 0
	}
	return float64(total) / float64(evals)
}

// RunAblationReorder prints the A1 comparison.
func RunAblationReorder(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureAblationReorder(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintln(w, "variant,time_s,leaves_per_eval")
		fmt.Fprintf(w, "plain,%.9f,%.2f\n", res.PlainTime.Seconds(), res.PlainLeaves)
		fmt.Fprintf(w, "reordered,%.9f,%.2f\n", res.ReorderedTime.Seconds(), res.ReorderedLeaves)
		return nil
	}
	fmt.Fprintf(w, "A1: subscription-tree child reordering (unbalanced workload, %d subscriptions)\n\n", res.Subs)
	fmt.Fprintf(w, "%-12s %-16s %-18s\n", "variant", "time (s)", "leaves/evaluation")
	fmt.Fprintf(w, "%-12s %-16.9f %-18.2f\n", "plain", res.PlainTime.Seconds(), res.PlainLeaves)
	fmt.Fprintf(w, "%-12s %-16.9f %-18.2f\n", "reordered", res.ReorderedTime.Seconds(), res.ReorderedLeaves)
	fmt.Fprintln(w)
	return nil
}

// AblationEncodingResult compares the paper's fixed-width encoding with the
// compact varint encoding (A2; the paper's "improved encoding" future work).
type AblationEncodingResult struct {
	Subs         int
	PaperBytes   int
	CompactBytes int
	PaperTime    time.Duration
	CompactTime  time.Duration
}

// MeasureAblationEncoding builds one engine per encoding over the Table 1
// workload and compares tree storage and matching time.
func MeasureAblationEncoding(cfg Config) (AblationEncodingResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(500_000, cfg.Scale)
	params := workload.Params{NumSubscriptions: subs, PredsPerSub: 10, FulfilledPerEvent: 5000, Seed: cfg.Seed}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))

	build := func(enc subtree.Encoding) (*core.Engine, error) {
		reg := predicate.NewRegistry()
		idx := index.New()
		eng := core.New(reg, idx, core.Options{Encoding: enc, PaperAssociation: true})
		for i := 0; i < subs; i++ {
			if _, err := eng.Subscribe(params.Sub(i)); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
	paper, err := build(subtree.PaperEncoding)
	if err != nil {
		return AblationEncodingResult{}, err
	}
	compact, err := build(subtree.CompactEncoding)
	if err != nil {
		return AblationEncodingResult{}, err
	}
	draws := make([][]predicate.ID, cfg.Trials)
	drawParams := params
	for t := range draws {
		draws[t] = drawParams.FulfilledDraw(rng)
	}
	return AblationEncodingResult{
		Subs:         subs,
		PaperBytes:   paper.TreeBytes(),
		CompactBytes: compact.TreeBytes(),
		PaperTime:    timeMatch(paper.MatchPredicates, draws),
		CompactTime:  timeMatch(compact.MatchPredicates, draws),
	}, nil
}

// RunAblationEncoding prints the A2 comparison.
func RunAblationEncoding(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureAblationEncoding(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintln(w, "encoding,tree_bytes,time_s")
		fmt.Fprintf(w, "paper,%d,%.9f\n", res.PaperBytes, res.PaperTime.Seconds())
		fmt.Fprintf(w, "compact,%d,%.9f\n", res.CompactBytes, res.CompactTime.Seconds())
		return nil
	}
	fmt.Fprintf(w, "A2: tree encoding (|p|=10 workload, %d subscriptions)\n\n", res.Subs)
	fmt.Fprintf(w, "%-10s %-14s %-16s\n", "encoding", "tree bytes", "time (s)")
	fmt.Fprintf(w, "%-10s %-14d %-16.9f\n", "paper", res.PaperBytes, res.PaperTime.Seconds())
	fmt.Fprintf(w, "%-10s %-14d %-16.9f\n", "compact", res.CompactBytes, res.CompactTime.Seconds())
	if res.PaperBytes > 0 {
		fmt.Fprintf(w, "\ncompact/paper size ratio: %.2f\n\n", float64(res.CompactBytes)/float64(res.PaperBytes))
	}
	return nil
}

// AccessPoint is one |p| row of the A3 comparison: phase-one and
// phase-two work per event and association-table size per subscription
// under one listing. Phase1 counts the fulfilled predicates phase one
// finds: all of them under the paper's listing (its eager phase one), and
// under the access listing only those in the index's access partition,
// which is what the engine's own Match probes.
type AccessPoint struct {
	PredsPerSub   int
	Listing       string // "paper" or "access"
	Phase1        float64
	Candidates    float64
	Leaves        float64
	EntriesPerSub float64
}

// MeasureAblationAccess builds the Table 1 workload at |p| = 6, 8 and 10
// twice — once with the paper's association (every tree under every
// predicate), once with the default access-clause listing — and counts
// phase-one and phase-two work on the same fulfilled draws. Nothing is
// timed: the columns are counted work, so they describe the code, not the
// machine.
func MeasureAblationAccess(cfg Config) ([]AccessPoint, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(500_000, cfg.Scale)
	var out []AccessPoint
	for _, preds := range []int{6, 8, 10} {
		params := workload.Params{
			NumSubscriptions:  subs,
			PredsPerSub:       preds,
			FulfilledPerEvent: subs * preds / 1000, // the paper's 5 000 of 5 M
			Seed:              cfg.Seed,
		}
		if params.FulfilledPerEvent < 1 {
			params.FulfilledPerEvent = 1
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 5))
		draws := make([][]predicate.ID, cfg.Trials)
		for t := range draws {
			draws[t] = params.FulfilledDraw(rng)
		}
		for _, l := range []struct {
			name  string
			paper bool
		}{{"paper", true}, {"access", false}} {
			eng := core.New(predicate.NewRegistry(), index.New(), core.Options{PaperAssociation: l.paper})
			for i := 0; i < subs; i++ {
				if _, err := eng.Subscribe(params.Sub(i)); err != nil {
					return nil, err
				}
			}
			pt := AccessPoint{
				PredsPerSub:   preds,
				Listing:       l.name,
				EntriesPerSub: float64(eng.AssocEntries()) / float64(subs),
			}
			for _, d := range draws {
				found := 0
				for _, pid := range d {
					if eng.Listed(pid) {
						found++
					}
				}
				pt.Phase1 += float64(found) / float64(len(draws))
				leaves, evals := eng.InstrumentedMatch(d)
				pt.Leaves += float64(leaves) / float64(len(draws))
				pt.Candidates += float64(evals) / float64(len(draws))
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// RunAblationAccess prints the A3 comparison.
func RunAblationAccess(cfg Config) error {
	cfg = cfg.withDefaults()
	pts, err := MeasureAblationAccess(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintln(w, "preds_per_sub,listing,phase1_preds_per_event,candidates_per_event,leaves_per_event,assoc_entries_per_sub")
		for _, p := range pts {
			fmt.Fprintf(w, "%d,%s,%.2f,%.2f,%.2f,%.2f\n", p.PredsPerSub, p.Listing, p.Phase1, p.Candidates, p.Leaves, p.EntriesPerSub)
		}
		return nil
	}
	fmt.Fprintf(w, "A3: access-clause vs paper candidacy (Table 1 workload, %d subscriptions, counted work)\n\n",
		scaleCount(500_000, cfg.Scale))
	fmt.Fprintf(w, "%-5s %-8s %-20s %-18s %-16s %-18s\n",
		"|p|", "listing", "phase-1 preds/event", "candidates/event", "leaves/event", "assoc entries/sub")
	for _, p := range pts {
		fmt.Fprintf(w, "%-5d %-8s %-20.2f %-18.2f %-16.2f %-18.2f\n",
			p.PredsPerSub, p.Listing, p.Phase1, p.Candidates, p.Leaves, p.EntriesPerSub)
	}
	fmt.Fprintln(w)
	return nil
}
