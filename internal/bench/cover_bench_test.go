package bench

import (
	"bytes"
	"encoding/json"
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

func TestMeasureCover(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, Scale: 0.004, Trials: 1, Seed: 7}
	res, err := MeasureCover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(coverSkews()) {
		t.Fatalf("%d points, want %d", len(res.Points), len(coverSkews()))
	}
	for _, p := range res.Points {
		// The headline claim of C1, at every skew setting: covering prunes
		// the subscription flood.
		if p.FloodMsgsOn >= p.FloodMsgsOff {
			t.Errorf("skew %.2f: covering did not prune the flood (%d vs %d)",
				p.Skew, p.FloodMsgsOn, p.FloodMsgsOff)
		}
		if p.Suppressed == 0 {
			t.Errorf("skew %.2f: no suppressions recorded", p.Skew)
		}
	}
}

// TestPowerRanksLaw checks the shared C1/F1 sampler: ranks stay in the
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

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, Scale: 0.0005, Trials: 1, Seed: 7}
	e, ok := Lookup("cover")
	if !ok {
		t.Fatal("cover experiment not registered")
	}
	if err := RunJSON(e, cfg); err != nil {
		t.Fatal(err)
	}
	var res JSONResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if res.Experiment != "cover" {
		t.Errorf("experiment = %q", res.Experiment)
	}
	if len(res.Points) != len(coverSkews()) {
		t.Fatalf("%d points, want %d", len(res.Points), len(coverSkews()))
	}
	for _, key := range []string{"skew", "flood_off", "flood_on", "suppressed"} {
		if _, ok := res.Points[0][key]; !ok {
			t.Errorf("point missing %q: %v", key, res.Points[0])
		}
	}
	if _, isNum := res.Points[0]["flood_on"].(float64); !isNum {
		t.Errorf("flood_on not numeric: %T", res.Points[0]["flood_on"])
	}

	// Every experiment emits JSON, table1's parameter rows included.
	buf.Reset()
	table1, _ := Lookup("table1")
	if err := RunJSON(table1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("table1 JSON: %v\n%s", err, buf.String())
	}
	if len(res.Points) != 5 || res.Points[3]["value"] != "AND, OR" {
		t.Errorf("table1 JSON points: %v", res.Points)
	}
}
