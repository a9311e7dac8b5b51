// Benchmarks regenerating the paper's evaluation artefacts as testing.B
// targets — one benchmark per table and figure (see DESIGN.md §4 and
// EXPERIMENTS.md for the mapping and recorded results):
//
//	BenchmarkTable1Workload     Table 1 workload generation + DNF blow-up
//	BenchmarkFig3               Fig. 3(a)-(f): phase-two matching time per
//	                            event for all three algorithms
//	BenchmarkMemoryPerSubscription  M1: engine bytes per subscription
//	BenchmarkCrossoverSmallN    C4: small-N regime where counting wins
//	BenchmarkAblationReorder    A1: child reordering on/off
//	BenchmarkAblationEncoding   A2: paper vs compact tree encoding
//
// The full sweeps (time vs subscription count series) are produced by
// cmd/ncbench; these benchmarks pin one representative subscription count
// per figure so `go test -bench` gives comparable single numbers.
package noncanon_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
	"noncanon/internal/workload"
)

// benchSubs is the pinned subscription count for figure benchmarks: large
// enough to sit past the small-N crossover, small enough to set up in
// seconds. The paper-scale axes are swept by cmd/ncbench.
const benchSubs = 20_000

type benchEnv struct {
	params workload.Params
	reg    *predicate.Registry
	idx    *index.Index
	nc     *core.Engine
	cnt    *counting.Engine
	draws  [][]predicate.ID
}

var (
	benchEnvsMu sync.Mutex
	benchEnvs   = map[string]*benchEnv{}
)

// getEnv builds (once per parameter set) engines loaded with the Table 1
// workload and a bank of fulfilled-predicate draws.
func getEnv(b *testing.B, subs, preds, fulfilled int) *benchEnv {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%d", subs, preds, fulfilled)
	benchEnvsMu.Lock()
	defer benchEnvsMu.Unlock()
	if env, ok := benchEnvs[key]; ok {
		return env
	}
	params := workload.Params{
		NumSubscriptions:  subs,
		PredsPerSub:       preds,
		FulfilledPerEvent: fulfilled,
		Seed:              1,
	}
	env := &benchEnv{
		params: params,
		reg:    predicate.NewRegistry(),
		idx:    index.New(),
	}
	env.nc = core.New(env.reg, env.idx, core.Options{PaperAssociation: true})
	env.cnt = counting.New(env.reg, env.idx, counting.Options{})
	for i := 0; i < subs; i++ {
		expr := params.Sub(i)
		if _, err := env.nc.Subscribe(expr); err != nil {
			b.Fatal(err)
		}
		if _, err := env.cnt.Subscribe(expr); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	env.draws = make([][]predicate.ID, 16)
	for t := range env.draws {
		env.draws[t] = params.FulfilledDraw(rng)
	}
	benchEnvs[key] = env
	return env
}

// BenchmarkTable1Workload generates Table 1 subscriptions and their DNF
// transformation for each predicate count, reporting the blow-up factor.
func BenchmarkTable1Workload(b *testing.B) {
	for _, preds := range []int{6, 8, 10} {
		preds := preds
		b.Run(fmt.Sprintf("p%d", preds), func(b *testing.B) {
			params := workload.Params{NumSubscriptions: 1 << 20, PredsPerSub: preds}
			units := 0
			for i := 0; i < b.N; i++ {
				expr := params.Sub(i)
				d, err := boolexpr.ToDNF(expr, 0)
				if err != nil {
					b.Fatal(err)
				}
				units = len(d)
			}
			b.ReportMetric(float64(units), "units/sub")
		})
	}
}

// BenchmarkFig3 measures phase-two subscription matching per event for all
// six Fig. 3 parameter combinations and all three algorithms.
func BenchmarkFig3(b *testing.B) {
	for _, v := range []struct {
		preds, fulfilled int
	}{
		{6, 5000}, {8, 5000}, {10, 5000},
		{6, 10000}, {8, 10000}, {10, 10000},
	} {
		v := v
		name := fmt.Sprintf("p%d_k%d", v.preds, v.fulfilled)
		b.Run(name+"/non-canonical", func(b *testing.B) {
			env := getEnv(b, benchSubs, v.preds, v.fulfilled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.nc.MatchPredicates(env.draws[i%len(env.draws)])
			}
		})
		b.Run(name+"/counting-variant", func(b *testing.B) {
			env := getEnv(b, benchSubs, v.preds, v.fulfilled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.cnt.MatchPredicatesAlg(counting.Variant, env.draws[i%len(env.draws)])
			}
		})
		b.Run(name+"/counting", func(b *testing.B) {
			env := getEnv(b, benchSubs, v.preds, v.fulfilled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.cnt.MatchPredicatesAlg(counting.Classic, env.draws[i%len(env.draws)])
			}
		})
	}
}

// BenchmarkMemoryPerSubscription reports engine-owned phase-two bytes per
// original subscription (experiment M1).
func BenchmarkMemoryPerSubscription(b *testing.B) {
	for _, preds := range []int{6, 8, 10} {
		preds := preds
		env := getEnv(b, benchSubs, preds, 5000)
		b.Run(fmt.Sprintf("p%d/non-canonical", preds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = env.nc.MemBytes()
			}
			b.ReportMetric(float64(env.nc.MemBytes())/float64(benchSubs), "B/sub")
		})
		b.Run(fmt.Sprintf("p%d/counting", preds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = env.cnt.MemBytes()
			}
			b.ReportMetric(float64(env.cnt.MemBytes())/float64(benchSubs), "B/sub")
		})
	}
}

// BenchmarkCrossoverSmallN pins the small-subscription regime (C4) where
// the classic counting algorithm is expected to win.
func BenchmarkCrossoverSmallN(b *testing.B) {
	const smallSubs = 2000
	b.Run("non-canonical", func(b *testing.B) {
		env := getEnv(b, smallSubs, 6, 10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.nc.MatchPredicates(env.draws[i%len(env.draws)])
		}
	})
	b.Run("counting", func(b *testing.B) {
		env := getEnv(b, smallSubs, 6, 10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.cnt.MatchPredicatesAlg(counting.Classic, env.draws[i%len(env.draws)])
		}
	})
}

// ablationEnv builds a non-canonical engine over the Table 1 workload with
// specific compile options and the paper's association.
func ablationEnv(b *testing.B, opts core.Options) (*core.Engine, [][]predicate.ID) {
	b.Helper()
	opts.PaperAssociation = true
	params := workload.Params{NumSubscriptions: benchSubs, PredsPerSub: 10, FulfilledPerEvent: 5000, Seed: 1}
	reg := predicate.NewRegistry()
	idx := index.New()
	eng := core.New(reg, idx, opts)
	for i := 0; i < benchSubs; i++ {
		if _, err := eng.Subscribe(params.Sub(i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	draws := make([][]predicate.ID, 16)
	for t := range draws {
		draws[t] = params.FulfilledDraw(rng)
	}
	return eng, draws
}

// BenchmarkAblationReorder compares matching with and without
// cheapest-first child reordering (A1).
func BenchmarkAblationReorder(b *testing.B) {
	for _, reorder := range []bool{false, true} {
		reorder := reorder
		name := "plain"
		if reorder {
			name = "reordered"
		}
		b.Run(name, func(b *testing.B) {
			eng, draws := ablationEnv(b, core.Options{Reorder: reorder})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MatchPredicates(draws[i%len(draws)])
			}
		})
	}
}

// BenchmarkAblationEncoding compares the paper's fixed-width tree encoding
// with the compact varint encoding (A2), reporting stored tree bytes.
func BenchmarkAblationEncoding(b *testing.B) {
	for _, enc := range []subtree.Encoding{subtree.PaperEncoding, subtree.CompactEncoding} {
		enc := enc
		b.Run(enc.String(), func(b *testing.B) {
			eng, draws := ablationEnv(b, core.Options{Encoding: enc})
			b.ReportMetric(float64(eng.TreeBytes())/float64(benchSubs), "treeB/sub")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MatchPredicates(draws[i%len(draws)])
			}
		})
	}
}

// BenchmarkFullPipelineMatch measures Match end to end (phase 1 + 2) on
// workload events, the operation a broker performs per publication.
func BenchmarkFullPipelineMatch(b *testing.B) {
	env := getEnv(b, benchSubs, 6, 5000)
	rng := rand.New(rand.NewSource(3))
	evs := make([]event.Event, 64)
	for i := range evs {
		evs[i] = env.params.Event(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.nc.Match(evs[i%len(evs)])
	}
}

// BenchmarkMatchParallel runs phase two on the paper workload from
// GOMAXPROCS goroutines at once. The engine's RWMutex store lets every
// caller match under the read lock simultaneously; compare against
// BenchmarkMatchParallelSerialized (the old single-lock architecture) for
// the concurrency speedup and against BenchmarkFig3/p6_k5000/non-canonical
// for the single-threaded baseline.
func BenchmarkMatchParallel(b *testing.B) {
	env := getEnv(b, benchSubs, 6, 5000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var local []matcher.SubID
		i := 0
		for pb.Next() {
			local = env.nc.MatchPredicates(env.draws[i%len(env.draws)])
			i++
		}
		_ = local
	})
}

// BenchmarkMatchParallelSerialized reconstructs the pre-refactor
// architecture: parallel callers funnelled through one exclusive lock, the
// way a single engine mutex used to serialise every Match.
func BenchmarkMatchParallelSerialized(b *testing.B) {
	env := getEnv(b, benchSubs, 6, 5000)
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var local []matcher.SubID
		i := 0
		for pb.Next() {
			mu.Lock()
			local = env.nc.MatchPredicates(env.draws[i%len(env.draws)])
			mu.Unlock()
			i++
		}
		_ = local
	})
}
