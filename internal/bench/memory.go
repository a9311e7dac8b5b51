package bench

import (
	"fmt"

	"noncanon/internal/memmodel"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
	"noncanon/internal/workload"
)

// MemoryRow summarises memory behaviour for one predicate count.
type MemoryRow struct {
	PredsPerSub int
	NonCanon    memmodel.Report
	Counting    memmodel.Report
	// Analytic §3.3 models, per original subscription.
	PaperNonCanonPerSub float64
	PaperCountingPerSub float64
	// Capacity within the 512 MB paper machine (marginal-cost
	// extrapolation).
	CapacityNonCanon int
	CapacityCounting int
}

// Ratio is counting memory per subscription over non-canonical memory per
// subscription — the scalability factor of claim C1.
func (r MemoryRow) Ratio() float64 {
	d := r.NonCanon.BytesPerSubscription()
	if d == 0 {
		return 0
	}
	return r.Counting.BytesPerSubscription() / d
}

// MeasureMemory builds both engines at a probe size for each |p| and
// extrapolates capacities.
func MeasureMemory(cfg Config) ([]MemoryRow, error) {
	cfg = cfg.withDefaults()
	probe := scaleCount(200_000, cfg.Scale)
	var rows []MemoryRow
	for _, preds := range []int{6, 8, 10} {
		params := workload.Params{NumSubscriptions: probe, PredsPerSub: preds, Seed: cfg.Seed}
		es := newEngines()
		if err := es.grow(params, 0, probe); err != nil {
			return nil, err
		}
		report := func(name string, subs, units, engineBytes int) memmodel.Report {
			return memmodel.Report{Name: name, Subscriptions: subs, Units: units, EngineBytes: engineBytes,
				RegistryBytes: es.reg.MemBytes(), IndexBytes: es.idx.MemBytes()}
		}
		row := MemoryRow{
			PredsPerSub: preds,
			NonCanon:    report(es.nc.Name(), es.nc.NumSubscriptions(), es.nc.NumUnits(), es.nc.MemBytes()),
			Counting:    report(es.cnt.Name(), es.cnt.NumSubscriptions(), es.cnt.NumUnits(), es.cnt.MemBytes()),
		}
		// Analytic paper models per original subscription.
		units := params.TransformedPerSub()
		assocCounting := units * params.PredsPerTransformed()
		row.PaperCountingPerSub = float64(memmodel.PaperCountingBytes(units, preds, assocCounting))
		treeBytes := paperTreeBytes(params)
		row.PaperNonCanonPerSub = float64(memmodel.PaperNonCanonicalBytes(treeBytes, 1, preds))
		// Capacity extrapolation from measured marginal engine bytes. The
		// shared phase-one structures (registry, index) are identical for
		// every algorithm — the paper's comparison is about the phase-two
		// subscription storage, so capacities are computed over the
		// differing structures only. (A Go registry entry also carries map
		// overhead a 2005 C implementation would not; folding it in equally
		// would only mask the algorithmic difference.)
		row.CapacityNonCanon = memmodel.MaxSubscriptions(
			memmodel.PaperBudgetBytes, 0, row.NonCanon.BytesPerSubscription())
		row.CapacityCounting = memmodel.MaxSubscriptions(
			memmodel.PaperBudgetBytes, 0, row.Counting.BytesPerSubscription())
		rows = append(rows, row)
	}
	return rows, nil
}

// paperTreeBytes computes the paper-encoding size of one workload
// subscription tree.
func paperTreeBytes(p workload.Params) int {
	n := predicate.ID(0)
	intern := func(predicate.P) predicate.ID { n++; return n }
	compiled, err := subtree.Compile(p.Sub(0), intern, subtree.Options{})
	if err != nil {
		return 0
	}
	return len(compiled.Code)
}

func memoryTable(cfg Config) (*Table, error) {
	rows, err := MeasureMemory(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Notes: []string{fmt.Sprintf("engine bytes per original subscription and capacity within %s; analytic §3.3 models (bytes/sub):",
			memmodel.FormatBytes(memmodel.PaperBudgetBytes))},
		Columns: []Column{{"preds", "%d"}, {"nc_bytes_per_sub", "%.1f"}, {"counting_bytes_per_sub", "%.1f"},
			{"ratio", "%.2f"}, {"nc_capacity_512mb", "%d"}, {"counting_capacity_512mb", "%d"}},
	}
	for _, r := range rows {
		t.Notes = append(t.Notes, fmt.Sprintf("  |p|=%d: non-canonical %.1f, counting %.1f",
			r.PredsPerSub, r.PaperNonCanonPerSub, r.PaperCountingPerSub))
		t.Rows = append(t.Rows, []any{r.PredsPerSub, r.NonCanon.BytesPerSubscription(), r.Counting.BytesPerSubscription(),
			r.Ratio(), r.CapacityNonCanon, r.CapacityCounting})
	}
	return t, nil
}
