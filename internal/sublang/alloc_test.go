//go:build !race

// Race instrumentation changes allocation counts, so this budget runs only
// in unraced builds.

package sublang

import "testing"

// selectiveText is a filter of the TCP benchmark's selective shape.
const selectiveText = `(bucket = 1042 and (price > 91000 or price <= 41000)) and (vol >= 13370 or not region = "r2")`

// TestParseAllocBudget: parsing a selective-shaped filter allocates its
// tree and nothing else — a boxed node for each of the five leaves, the
// Not and the four And/Or nodes, an operand slice per And/Or (the root's
// grows once, as the parenthesised And before it is flattened in), and
// the copy of the string operand.
func TestParseAllocBudget(t *testing.T) {
	const budget = 16
	avg := testing.AllocsPerRun(200, func() {
		if _, err := Parse(selectiveText); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("Parse allocates %.1f per filter, budget %d", avg, budget)
	}
}
