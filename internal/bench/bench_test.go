package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/memmodel"
	"noncanon/internal/workload"
)

// tinyConfig keeps harness tests fast: ~2000 subscriptions max.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Scale: 0.0005, Points: 4, Trials: 2, Seed: 7}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{
		"table1", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
		"memory", "crossover", "ablation-reorder", "ablation-encoding",
		"ablation-access", "parallel", "batch", "cover", "million", "federate", "chaos",
		"obs",
	}
	if len(exps) != len(wantIDs) {
		t.Fatalf("%d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, want := range wantIDs {
		if exps[i].ID != want {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, want)
		}
	}
	if _, ok := Lookup("fig3c"); !ok {
		t.Error("Lookup(fig3c) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

func TestFig3VariantsMatchPaper(t *testing.T) {
	vs := Fig3Variants()
	if len(vs) != 6 {
		t.Fatalf("%d variants", len(vs))
	}
	for _, v := range vs {
		switch v.PredsPerSub {
		case 6:
			if v.PaperMaxSubs != 5_000_000 {
				t.Errorf("%s: max %d", v.ID, v.PaperMaxSubs)
			}
		case 8:
			if v.PaperMaxSubs != 4_000_000 {
				t.Errorf("%s: max %d", v.ID, v.PaperMaxSubs)
			}
		case 10:
			if v.PaperMaxSubs != 2_500_000 {
				t.Errorf("%s: max %d", v.ID, v.PaperMaxSubs)
			}
		}
		if v.Fulfilled != 5000 && v.Fulfilled != 10000 {
			t.Errorf("%s: fulfilled %d", v.ID, v.Fulfilled)
		}
		if !strings.Contains(v.Title(), "predicates") {
			t.Errorf("%s title: %s", v.ID, v.Title())
		}
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "6 to 10", "8 to 32", "AND, OR"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureFig3SmallScale(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	v := Fig3Variants()[0] // fig3a
	res, err := MeasureFig3(cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no sweep points")
	}
	last := res.Points[len(res.Points)-1]
	if last.Subs != scaleCount(v.PaperMaxSubs, cfg.Scale) {
		t.Errorf("last point subs = %d", last.Subs)
	}
	for _, p := range res.Points {
		if p.NonCanonical < 0 || p.Counting <= 0 || p.CountingVariant <= 0 {
			t.Errorf("non-positive duration at %d: %+v", p.Subs, p)
		}
	}
	// No shape assertion here: at tiny scale the classic counting algorithm
	// legitimately wins (the paper's own small-N observation, §4.1);
	// TestFig3ShapeAtModerateScale checks the headline ordering.
}

// fig3Engines registers the first n subscriptions of a Fig. 3 subplot's
// workload into a fresh engine bundle, as MeasureFig3 does at a sweep point.
func fig3Engines(t *testing.T, v Fig3Variant, n int, seed int64) (*engines, workload.Params) {
	t.Helper()
	params := workload.Params{
		NumSubscriptions:  n,
		PredsPerSub:       v.PredsPerSub,
		FulfilledPerEvent: v.Fulfilled,
		Seed:              seed,
	}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	es := newEngines(core.Options{})
	if err := es.grow(params, 0, n); err != nil {
		t.Fatal(err)
	}
	return es, params
}

// TestFig3ShapeAtModerateScale verifies claim C2 where it is expected to
// hold: past the small-N crossover region, the non-canonical engine does
// less phase-two work than the classic counting scan, and the counting
// variant sits in between. The shape is asserted on counted work — leaves
// inspected and candidates evaluated vs counter increments and unit
// compares — so the verdict is the code's, not the machine's; the
// wall-clock curves are `ncbench -exp fig3c`.
func TestFig3ShapeAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale sweep skipped in -short mode")
	}
	v := Fig3Variants()[2] // fig3c: |p|=10, 32× blow-up
	// The last sweep point at scale 0.02: 50k subscriptions, 1.6M units.
	es, params := fig3Engines(t, v, scaleCount(v.PaperMaxSubs, 0.02), 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 3; trial++ {
		draw := params.FulfilledDraw(rng)
		leaves, evals := es.nc.InstrumentedMatch(draw)
		incs, scanned := es.cnt.InstrumentedMatch(counting.Classic, draw)
		_, touched := es.cnt.InstrumentedMatch(counting.Variant, draw)
		nonCanonical, variant, classic := leaves+evals, incs+touched, incs+scanned
		if evals == 0 {
			t.Fatalf("trial %d: no candidates — the draw exercises nothing", trial)
		}
		if nonCanonical >= classic {
			t.Errorf("trial %d: non-canonical work %d (leaves %d + evals %d) should be below classic counting's %d (increments %d + units scanned %d)",
				trial, nonCanonical, leaves, evals, classic, incs, scanned)
		}
		if nonCanonical > variant || variant > classic {
			t.Errorf("trial %d: want non-canonical %d <= counting variant %d <= classic %d",
				trial, nonCanonical, variant, classic)
		}
	}
}

func TestRunFig3Formats(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	if err := RunFig3(cfg, Fig3Variants()[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "non-canonical") {
		t.Errorf("table output:\n%s", buf.String())
	}
	buf.Reset()
	cfg.CSV = true
	if err := RunFig3(cfg, Fig3Variants()[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "subs,non_canonical_s") {
		t.Errorf("csv output:\n%s", buf.String())
	}
}

func TestMeasureFig3WithSwapModel(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	// A budget of zero bytes forces the swap penalty everywhere.
	cfg.Swap = &memmodel.SwapModel{BudgetBytes: 1, Penalty: 10}
	res, err := MeasureFig3(cfg, Fig3Variants()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("swap-model sweep produced no points")
	}
	// The model's effect, on counted bytes rather than two timed runs: with
	// a budget that just fits the non-canonical engine, the counting engine
	// over the same subscriptions is over budget, so only its times inflate
	// — the order in which Fig. 3's curves hit the wall.
	last := res.Points[len(res.Points)-1]
	es, _ := fig3Engines(t, Fig3Variants()[0], last.Subs, cfg.Seed)
	shared := es.reg.MemBytes() + es.idx.MemBytes()
	fits := memmodel.SwapModel{BudgetBytes: shared + es.nc.MemBytes(), Penalty: 10}
	if got := fits.Apply(time.Second, shared+es.nc.MemBytes()); got != time.Second {
		t.Errorf("engine within budget was penalised: 1s -> %v", got)
	}
	if got := fits.Apply(time.Second, shared+es.cnt.MemBytes()); got <= time.Second {
		t.Errorf("counting engine (%d B over a %d B budget) was not penalised: 1s -> %v",
			shared+es.cnt.MemBytes(), fits.BudgetBytes, got)
	}
}

func TestMeasureMemory(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	rows, err := MeasureMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	prevRatio := 0.0
	for _, r := range rows {
		if r.Counting.Units != r.Counting.Subscriptions*(1<<(r.PredsPerSub/2)) {
			t.Errorf("|p|=%d: units=%d subs=%d", r.PredsPerSub, r.Counting.Units, r.Counting.Subscriptions)
		}
		if r.Ratio() <= 1 {
			t.Errorf("|p|=%d: counting should need more memory per sub (ratio %.2f)", r.PredsPerSub, r.Ratio())
		}
		if r.Ratio() < prevRatio {
			t.Errorf("ratio should grow with |p|: %v", rows)
		}
		prevRatio = r.Ratio()
		if r.CapacityNonCanon <= r.CapacityCounting {
			t.Errorf("|p|=%d: non-canonical capacity %d should exceed counting %d",
				r.PredsPerSub, r.CapacityNonCanon, r.CapacityCounting)
		}
	}
	// C1: at |p|=10 the paper reports a ≥4× capacity advantage; the
	// analytic §3.3 byte model reproduces that factor exactly. The measured
	// Go structures carry slice-header and bookkeeping overhead a 2005 C
	// implementation lacks, which flattens the measured ratio — assert the
	// direction (>2×) here; EXPERIMENTS.md records both numbers.
	last := rows[2]
	if f := float64(last.CapacityNonCanon) / float64(last.CapacityCounting); f < 2 {
		t.Errorf("|p|=10 measured capacity factor = %.2f, want >= 2", f)
	}
	if f := last.PaperCountingPerSub / last.PaperNonCanonPerSub; f < 4 {
		t.Errorf("|p|=10 analytic model factor = %.2f, want >= 4 (paper §4.1)", f)
	}
	if err := RunMemory(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "capacity") {
		t.Errorf("memory output:\n%s", buf.String())
	}
}

func TestMeasureCrossover(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	res, err := MeasureCrossover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if err := RunCrossover(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") && !strings.Contains(buf.String(), "counting") {
		t.Errorf("crossover output:\n%s", buf.String())
	}
}

func TestMeasureAblationReorder(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	res, err := MeasureAblationReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reordering must reduce inspected leaves on the unbalanced workload.
	if res.ReorderedLeaves >= res.PlainLeaves {
		t.Errorf("reorder did not reduce leaf inspections: plain=%.2f reordered=%.2f",
			res.PlainLeaves, res.ReorderedLeaves)
	}
	if err := RunAblationReorder(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reorder") {
		t.Errorf("ablation output:\n%s", buf.String())
	}
}

func TestMeasureAblationEncoding(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	res, err := MeasureAblationEncoding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactBytes >= res.PaperBytes {
		t.Errorf("compact encoding should be smaller: paper=%d compact=%d",
			res.PaperBytes, res.CompactBytes)
	}
	if err := RunAblationEncoding(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "encoding") {
		t.Errorf("ablation output:\n%s", buf.String())
	}
}

// TestMeasureAblationAccess asserts A3's shape on counted work: at every
// |p| the paper listing holds |p| entries per subscription and the access
// listing 2 (one OR-pair), and the access listing finds about 2/|p| as
// many predicates in phase one, evaluates fewer candidates and inspects
// fewer leaves.
func TestMeasureAblationAccess(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Scale = 0.004 // 2 000 subscriptions, a few fulfilled predicates per draw
	pts, err := MeasureAblationAccess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d rows, want 6 (|p| 6/8/10 × two listings)", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		paper, access := pts[i], pts[i+1]
		if paper.Listing != "paper" || access.Listing != "access" || paper.PredsPerSub != access.PredsPerSub {
			t.Fatalf("rows %d-%d: %+v, %+v", i, i+1, paper, access)
		}
		if paper.EntriesPerSub != float64(paper.PredsPerSub) || access.EntriesPerSub != 2 {
			t.Errorf("|p|=%d: entries/sub paper %.2f access %.2f, want %d and 2",
				paper.PredsPerSub, paper.EntriesPerSub, access.EntriesPerSub, paper.PredsPerSub)
		}
		if paper.Candidates == 0 || access.Candidates >= paper.Candidates || access.Leaves >= paper.Leaves {
			t.Errorf("|p|=%d: access candidates %.2f leaves %.2f, want below paper's %.2f and %.2f",
				paper.PredsPerSub, access.Candidates, access.Leaves, paper.Candidates, paper.Leaves)
		}
		// The paper's phase one finds every fulfilled predicate; the access
		// partition holds one OR-pair of each tree's |p| predicates.
		if paper.Phase1 == 0 || access.Phase1 > 1.5*2/float64(paper.PredsPerSub)*paper.Phase1 {
			t.Errorf("|p|=%d: phase-one predicates/event access %.2f, paper %.2f; want access <= 1.5 × 2/|p| × paper",
				paper.PredsPerSub, access.Phase1, paper.Phase1)
		}
	}
	if err := RunAblationAccess(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "access") {
		t.Errorf("ablation output:\n%s", buf.String())
	}
}

func TestSweepPoints(t *testing.T) {
	pts := sweepPoints(1000, 4)
	want := []int{250, 500, 750, 1000}
	if len(pts) != len(want) {
		t.Fatalf("sweepPoints = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("sweepPoints = %v, want %v", pts, want)
		}
	}
	// Tiny max: no zero or duplicate points.
	pts = sweepPoints(3, 10)
	for i, p := range pts {
		if p <= 0 {
			t.Errorf("non-positive point %d", p)
		}
		if i > 0 && pts[i] <= pts[i-1] {
			t.Errorf("non-increasing points %v", pts)
		}
	}
}

func TestMeasureParallel(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	res, err := MeasureParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GOMAXPROCS < 1 || res.Subs <= 0 {
		t.Fatalf("bad result header: %+v", res)
	}
	if len(res.Points) == 0 {
		t.Fatal("no sweep points")
	}
	if res.Points[0].Workers != 1 {
		t.Errorf("first point workers = %d, want 1", res.Points[0].Workers)
	}
	if last := res.Points[len(res.Points)-1]; last.Workers != res.GOMAXPROCS {
		t.Errorf("last point workers = %d, want GOMAXPROCS %d", last.Workers, res.GOMAXPROCS)
	}
	for _, p := range res.Points {
		if p.EventsPerSec <= 0 || p.SerializedPerSec <= 0 || p.Speedup <= 0 {
			t.Errorf("non-positive throughput at %d workers: %+v", p.Workers, p)
		}
	}
	// Output paths: text and CSV.
	if err := RunParallel(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workers") {
		t.Errorf("text output missing header: %q", buf.String())
	}
	buf.Reset()
	cfg.CSV = true
	if err := RunParallel(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workers,concurrent_ev_s") {
		t.Errorf("CSV output missing header: %q", buf.String())
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(ds, 50); p != 5 {
		t.Errorf("p50 = %d, want 5", p)
	}
	if p := percentile(ds, 99); p != 10 {
		t.Errorf("p99 = %d, want 10", p)
	}
	if p := percentile(ds, 100); p != 10 {
		t.Errorf("p100 = %d, want 10", p)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("empty percentile = %d, want 0", p)
	}
	if p := percentile([]time.Duration{7}, 1); p != 7 {
		t.Errorf("singleton p1 = %d, want 7", p)
	}
}

func TestWorkerCounts(t *testing.T) {
	tests := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
	}
	for _, tt := range tests {
		got := workerCounts(tt.max)
		if len(got) != len(tt.want) {
			t.Errorf("workerCounts(%d) = %v, want %v", tt.max, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("workerCounts(%d) = %v, want %v", tt.max, got, tt.want)
				break
			}
		}
	}
}

func TestAllExperimentsRunTiny(t *testing.T) {
	// Smoke: every registered experiment completes at tiny scale.
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", exp.ID)
			}
		})
	}
}
