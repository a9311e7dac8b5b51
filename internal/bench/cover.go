package bench

import (
	"math"
	"math/rand"
	"sort"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// coverCategories is the number of filter categories in the pool; filters
// within a category are nested price bands, so low ranks are broad
// AND popular — the regime covering exploits.
const coverCategories = 16

// coverFilter returns distinct filter #rank of a pool of `pool`: an
// equality on the category plus a price band whose width shrinks with the
// rank. Within a category, a lower rank covers every higher one.
func coverFilter(rank, pool int) boolexpr.Expr {
	levels := pool/coverCategories + 1
	cat := rank % coverCategories
	width := levels - rank/coverCategories // 1 … levels, broad first
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(cat)),
		boolexpr.Pred("price", predicate.Lt, int64(10*width)),
	)
}

func coverEvent(rng *rand.Rand, pool int) event.Event {
	levels := pool/coverCategories + 1
	return event.New().
		Set("cat", int64(rng.Intn(coverCategories))).
		Set("price", int64(rng.Intn(10*levels)))
}

// coverPool is the number of distinct filters F1 (and TestCoverPrunesFlood)
// draws from for subs subscribers.
func coverPool(subs int) int { return max(subs/16, coverCategories) }

// powerRanks draws every subscriber's filter rank from a finite-pool power
// law with weight 1/(rank+1)^skew; skew 0 is uniform. For skew > 1 this is
// the law rand.NewZipf(rng, skew, 1, pool-1) draws, but NewZipf refuses
// exponents at or below 1, so the draw inverts a cumulative weight table.
func powerRanks(rng *rand.Rand, skew float64, n, pool int) []int {
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
