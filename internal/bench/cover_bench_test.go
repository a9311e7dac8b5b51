package bench

import (
	"math"
	"math/rand"
	"testing"
)

func TestCoverFilterPool(t *testing.T) {
	const pool = 64
	// Distinct ranks must yield distinct filters (the pool size is the
	// number of distinct filters a draw can hold).
	seen := map[string]int{}
	for r := 0; r < pool; r++ {
		s := coverFilter(r, pool).String()
		if prev, dup := seen[s]; dup {
			t.Fatalf("ranks %d and %d collide: %s", prev, r, s)
		}
		seen[s] = r
	}
}

// TestPowerRanksLaw checks the sampler F1 and TestCoverPrunesFlood share: ranks stay in the
// pool, skew 0 is uniform, and a skew above 1 concentrates draws on the
// low (broad) ranks as 1/(r+1)^skew does.
func TestPowerRanksLaw(t *testing.T) {
	const n, pool = 20000, 8
	for _, skew := range []float64{0, 2} {
		counts := make([]int, pool)
		for _, r := range powerRanks(rand.New(rand.NewSource(1)), skew, n, pool) {
			if r < 0 || r >= pool {
				t.Fatalf("skew %.1f: rank %d outside pool %d", skew, r, pool)
			}
			counts[r]++
		}
		total := 0.0
		for r := 0; r < pool; r++ {
			total += math.Pow(float64(r+1), -skew)
		}
		for r, c := range counts {
			want := float64(n) * math.Pow(float64(r+1), -skew) / total
			if math.Abs(float64(c)-want) > 5*math.Sqrt(want)+1 {
				t.Errorf("skew %.1f: rank %d drawn %d times, want ≈ %.0f", skew, r, c, want)
			}
		}
	}
}
