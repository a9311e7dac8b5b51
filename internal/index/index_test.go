package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

func ids(xs ...predicate.ID) []predicate.ID { return xs }

func sortedIDs(s []predicate.ID) []predicate.ID {
	out := append([]predicate.ID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []predicate.ID) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchPointPredicates(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("a", predicate.Eq, 10))
	ix.Add(2, predicate.New("a", predicate.Eq, 20))
	ix.Add(3, predicate.New("b", predicate.Eq, 10))
	ix.Add(4, predicate.New("a", predicate.Eq, "10"))

	got := ix.Match(event.New().Set("a", 10), nil)
	if !sameIDs(got, ids(1)) {
		t.Errorf("Match = %v, want [1]", got)
	}
	// Numeric unification: float event value matches int operand.
	got = ix.Match(event.New().Set("a", 10.0), nil)
	if !sameIDs(got, ids(1)) {
		t.Errorf("Match(10.0) = %v, want [1]", got)
	}
	// String "10" only matches the string predicate.
	got = ix.Match(event.New().Set("a", "10"), nil)
	if !sameIDs(got, ids(4)) {
		t.Errorf("Match(\"10\") = %v, want [4]", got)
	}
	// Unknown attribute: nothing.
	if got = ix.Match(event.New().Set("zz", 10), nil); len(got) != 0 {
		t.Errorf("Match(zz) = %v", got)
	}
}

func TestMatchRangePredicates(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("p", predicate.Lt, 10))  // v < 10
	ix.Add(2, predicate.New("p", predicate.Le, 10))  // v <= 10
	ix.Add(3, predicate.New("p", predicate.Gt, 10))  // v > 10
	ix.Add(4, predicate.New("p", predicate.Ge, 10))  // v >= 10
	ix.Add(5, predicate.New("p", predicate.Lt, 5.5)) // v < 5.5

	tests := []struct {
		v    any
		want []predicate.ID
	}{
		{4, ids(1, 2, 5)},
		{5.5, ids(1, 2)},
		{9, ids(1, 2)},
		{10, ids(2, 4)},
		{10.0, ids(2, 4)},
		{11, ids(3, 4)},
	}
	for _, tt := range tests {
		got := ix.Match(event.New().Set("p", tt.v), nil)
		if !sameIDs(got, tt.want) {
			t.Errorf("Match(p=%v) = %v, want %v", tt.v, sortedIDs(got), tt.want)
		}
	}
}

func TestMatchStringRange(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("s", predicate.Lt, "m"))
	ix.Add(2, predicate.New("s", predicate.Ge, "m"))
	if got := ix.Match(event.New().Set("s", "apple"), nil); !sameIDs(got, ids(1)) {
		t.Errorf("apple = %v", got)
	}
	if got := ix.Match(event.New().Set("s", "m"), nil); !sameIDs(got, ids(2)) {
		t.Errorf("m = %v", got)
	}
	if got := ix.Match(event.New().Set("s", "zebra"), nil); !sameIDs(got, ids(2)) {
		t.Errorf("zebra = %v", got)
	}
}

func TestMatchNe(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("a", predicate.Ne, 5))
	ix.Add(2, predicate.New("a", predicate.Ne, "x"))
	ix.Add(3, predicate.New("a", predicate.Ne, true))

	if got := ix.Match(event.New().Set("a", 7), nil); !sameIDs(got, ids(1)) {
		t.Errorf("a=7: %v", got)
	}
	// Equal value: no match; string and bool predicates incomparable.
	if got := ix.Match(event.New().Set("a", 5), nil); len(got) != 0 {
		t.Errorf("a=5: %v", got)
	}
	if got := ix.Match(event.New().Set("a", "y"), nil); !sameIDs(got, ids(2)) {
		t.Errorf("a=y: %v", got)
	}
	if got := ix.Match(event.New().Set("a", "x"), nil); len(got) != 0 {
		t.Errorf("a=x: %v", got)
	}
	if got := ix.Match(event.New().Set("a", false), nil); !sameIDs(got, ids(3)) {
		t.Errorf("a=false: %v", got)
	}
}

func TestMatchStringOps(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("s", predicate.Prefix, "AC"))
	ix.Add(2, predicate.New("s", predicate.Prefix, "ACME"))
	ix.Add(3, predicate.New("s", predicate.Suffix, "ME"))
	ix.Add(4, predicate.New("s", predicate.Contains, "CM"))
	ix.Add(5, predicate.New("s", predicate.Prefix, ""))

	got := ix.Match(event.New().Set("s", "ACME"), nil)
	if !sameIDs(got, ids(1, 2, 3, 4, 5)) {
		t.Errorf("ACME = %v", sortedIDs(got))
	}
	got = ix.Match(event.New().Set("s", "AC"), nil)
	if !sameIDs(got, ids(1, 5)) {
		t.Errorf("AC = %v", sortedIDs(got))
	}
	// Numeric value matches no string predicate.
	if got = ix.Match(event.New().Set("s", 5), nil); len(got) != 0 {
		t.Errorf("s=5: %v", got)
	}
}

func TestMatchExists(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("a", predicate.Exists, nil))
	if got := ix.Match(event.New().Set("a", 1), nil); !sameIDs(got, ids(1)) {
		t.Errorf("a=1: %v", got)
	}
	if got := ix.Match(event.New().Set("a", "s"), nil); !sameIDs(got, ids(1)) {
		t.Errorf("a=s: %v", got)
	}
	if got := ix.Match(event.New().Set("b", 1), nil); len(got) != 0 {
		t.Errorf("b=1: %v", got)
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	preds := []predicate.P{
		predicate.New("a", predicate.Eq, 10),
		predicate.New("a", predicate.Ne, 10),
		predicate.New("a", predicate.Lt, 10),
		predicate.New("a", predicate.Ge, 10),
		predicate.New("s", predicate.Lt, "m"),
		predicate.New("s", predicate.Prefix, "A"),
		predicate.New("s", predicate.Suffix, "Z"),
		predicate.New("s", predicate.Contains, "Q"),
		predicate.New("s", predicate.Exists, nil),
	}
	for i, p := range preds {
		ix.Add(predicate.ID(i+1), p)
	}
	if ix.NumPredicates() != len(preds) {
		t.Fatalf("NumPredicates = %d", ix.NumPredicates())
	}
	for i, p := range preds {
		if !ix.Remove(predicate.ID(i+1), p) {
			t.Errorf("Remove(%d, %s) failed", i+1, p)
		}
	}
	if ix.NumPredicates() != 0 {
		t.Errorf("NumPredicates after removal = %d", ix.NumPredicates())
	}
	// Everything gone: no event matches.
	evs := []event.Event{
		event.New().Set("a", 5),
		event.New().Set("a", 100),
		event.New().Set("s", "AQZ"),
	}
	for _, ev := range evs {
		if got := ix.Match(ev, nil); len(got) != 0 {
			t.Errorf("after removal Match(%s) = %v", ev, got)
		}
	}
	// Removing again fails.
	if ix.Remove(1, preds[0]) {
		t.Error("double Remove should be false")
	}
	// Removing from unknown attribute fails.
	if ix.Remove(1, predicate.New("zz", predicate.Eq, 1)) {
		t.Error("Remove on unknown attribute should be false")
	}
}

func TestMatchAppendsToProvidedSlice(t *testing.T) {
	ix := New()
	ix.Add(1, predicate.New("a", predicate.Eq, 1))
	buf := make([]predicate.ID, 0, 16)
	out := ix.Match(event.New().Set("a", 1), buf)
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("out = %v", out)
	}
	out2 := ix.Match(event.New().Set("a", 1), out)
	if len(out2) != 2 {
		t.Errorf("append semantics broken: %v", out2)
	}
}

// TestMatchAgainstBruteForceProperty registers random predicates and checks
// that index matching agrees exactly with direct evaluation of every
// predicate — the phase-one correctness contract.
func TestMatchAgainstBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	attrs := []string{"a", "b", "c", "d"}
	ops := []predicate.Op{
		predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge,
		predicate.Prefix, predicate.Suffix, predicate.Contains, predicate.Exists,
	}
	strPool := []string{"", "a", "ab", "abc", "b", "bc", "xyz"}

	randomPred := func() predicate.P {
		attr := attrs[rng.Intn(len(attrs))]
		op := ops[rng.Intn(len(ops))]
		switch op {
		case predicate.Prefix, predicate.Suffix, predicate.Contains:
			return predicate.New(attr, op, strPool[rng.Intn(len(strPool))])
		case predicate.Exists:
			return predicate.New(attr, op, nil)
		default:
			switch rng.Intn(4) {
			case 0:
				return predicate.New(attr, op, strPool[rng.Intn(len(strPool))])
			case 1:
				return predicate.New(attr, op, float64(rng.Intn(20))/2)
			default:
				return predicate.New(attr, op, rng.Intn(10))
			}
		}
	}
	randomEvent := func() event.Event {
		ev := event.New()
		for _, a := range attrs {
			switch rng.Intn(5) {
			case 0: // absent
			case 1:
				ev = ev.Set(a, strPool[rng.Intn(len(strPool))])
			case 2:
				ev = ev.Set(a, float64(rng.Intn(20))/2)
			case 3:
				ev = ev.Set(a, rng.Intn(2) == 0)
			default:
				ev = ev.Set(a, rng.Intn(10))
			}
		}
		return ev
	}

	for round := 0; round < 30; round++ {
		ix := New()
		// Distinct predicates only (interning contract): dedupe by string.
		seen := map[string]bool{}
		var regd []predicate.P
		for len(regd) < 60 {
			p := randomPred()
			if seen[p.String()] {
				continue
			}
			seen[p.String()] = true
			regd = append(regd, p)
			ix.Add(predicate.ID(len(regd)), p)
		}
		// Remove a random third to exercise deletion paths.
		removed := map[int]bool{}
		for i := 0; i < 20; i++ {
			j := rng.Intn(len(regd))
			if removed[j] {
				continue
			}
			if !ix.Remove(predicate.ID(j+1), regd[j]) {
				t.Fatalf("round %d: Remove(%d, %s) failed", round, j+1, regd[j])
			}
			removed[j] = true
		}
		for trial := 0; trial < 40; trial++ {
			ev := randomEvent()
			var want []predicate.ID
			for j, p := range regd {
				if !removed[j] && p.Eval(ev) {
					want = append(want, predicate.ID(j+1))
				}
			}
			got := ix.Match(ev, nil)
			if !sameIDs(got, want) {
				t.Fatalf("round %d: Match(%s)\n got %v\nwant %v", round, ev, sortedIDs(got), sortedIDs(want))
			}
		}
	}
}

func TestMemBytes(t *testing.T) {
	ix := New()
	empty := ix.MemBytes()
	for i := 0; i < 100; i++ {
		ix.Add(predicate.ID(i+1), predicate.New("a", predicate.Lt, i))
	}
	if full := ix.MemBytes(); full <= empty {
		t.Errorf("MemBytes did not grow: %d -> %d", empty, full)
	}
}

// Numeric operands and event values where float ordering and
// value.Compare part: NaN, ±Inf and the neighbours of ±2^53.
const two53 = 1 << 53

var edgeNumbers = []any{
	math.NaN(), math.Inf(1), math.Inf(-1),
	int64(two53), int64(two53 + 1), int64(two53 - 1), int64(-two53), int64(-two53 - 1), int64(-two53 + 1),
	float64(two53), float64(-two53), float64(two53 - 1),
	0, 5, 5.0, 5.5, -0.0, math.MaxInt64, math.MinInt64,
}

// TestMatchEdgeNumbersAgreeWithEval: for every operator and every edge
// operand, an index holding the single predicate `x OP c` answers each
// edge event value exactly as predicate.Eval does.
func TestMatchEdgeNumbersAgreeWithEval(t *testing.T) {
	ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
	for _, op := range ops {
		for _, c := range edgeNumbers {
			p := predicate.New("x", op, c)
			ix := New()
			ix.Add(1, p)
			for _, v := range edgeNumbers {
				ev := event.New().Set("x", v)
				want := p.Eval(ev)
				if got := len(ix.Match(ev, nil)) == 1; got != want {
					t.Errorf("x %s %v on %v: index %v, Eval %v", op, p.Operand, ev, got, want)
				}
			}
		}
	}
}

// TestEdgeNumbersPinned pins the cases where phase one used to
// disagree with Eval.
func TestEdgeNumbersPinned(t *testing.T) {
	for _, tc := range []struct {
		op   predicate.Op
		c, v any
		want bool
	}{
		{predicate.Gt, int64(two53), int64(two53 + 1), true},
		{predicate.Ge, int64(two53 + 1), int64(two53), false},
		{predicate.Lt, int64(two53 + 1), int64(two53), true},
		{predicate.Le, int64(two53), int64(two53 + 1), false},
		{predicate.Eq, int64(two53 + 1), float64(two53), true},
		{predicate.Ne, int64(two53 + 1), float64(two53), false},
		{predicate.Ne, 5, math.NaN(), false},
		{predicate.Gt, 5, math.NaN(), false},
		{predicate.Gt, math.Inf(-1), math.NaN(), false},
		{predicate.Eq, 5, math.NaN(), true},
		{predicate.Le, 5, math.NaN(), true},
	} {
		p := predicate.New("x", tc.op, tc.c)
		ix := New()
		ix.Add(1, p)
		ev := event.New().Set("x", tc.v)
		if got := len(ix.Match(ev, nil)) == 1; got != tc.want || p.Eval(ev) != tc.want {
			t.Errorf("x %s %v on %v: index %v, Eval %v, want %v", tc.op, p.Operand, ev, got, p.Eval(ev), tc.want)
		}
	}
}

// TestAccessPartitions: SetAccess moves a predicate between partitions without
// storing it twice; Match sees both, MatchAccess only the access one, and
// Remove finds a predicate in either.
func TestAccessPartitions(t *testing.T) {
	ix := New()
	a, b := predicate.New("x", predicate.Gt, 1), predicate.New("x", predicate.Eq, 5)
	ix.Add(1, a)
	ix.Add(2, b)
	before := ix.MemBytes()
	ev := event.New().Set("x", 5)
	if got := ix.MatchAccess(ev, nil); len(got) != 0 {
		t.Fatalf("MatchAccess before SetAccess = %v", got)
	}
	if !ix.SetAccess(2, b, true) || ix.SetAccess(2, b, true) {
		t.Fatal("SetAccess(on) must move the predicate exactly once")
	}
	if got := ix.MatchAccess(ev, nil); !sameIDs(got, ids(2)) {
		t.Errorf("MatchAccess = %v, want [2]", got)
	}
	if got := ix.Match(ev, nil); !sameIDs(got, ids(1, 2)) {
		t.Errorf("Match = %v, want [1 2]", got)
	}
	if ix.NumPredicates() != 2 {
		t.Errorf("after the move: %d predicates, want 2", ix.NumPredicates())
	}
	if !ix.SetAccess(2, b, false) || ix.SetAccess(2, b, false) {
		t.Fatal("SetAccess(off) must move the predicate exactly once")
	}
	if ix.MemBytes() != before {
		t.Errorf("after moving back: %d bytes, want %d (the emptied partition's structures uncounted)", ix.MemBytes(), before)
	}
	if got := ix.MatchAccess(ev, nil); len(got) != 0 {
		t.Errorf("MatchAccess after SetAccess(off) = %v", got)
	}
	ix.SetAccess(1, a, true)
	if !ix.Remove(1, a) || !ix.Remove(2, b) || ix.NumPredicates() != 0 {
		t.Fatalf("Remove from both partitions failed: %d left", ix.NumPredicates())
	}
	if ix.SetAccess(1, a, true) {
		t.Error("SetAccess of a removed predicate reported a move")
	}
}

// FuzzIndexAgreesWithEval: over fuzzed predicate sets split between the
// partitions and fuzzed events, Match returns exactly {p : p.Eval(ev)}
// and MatchAccess exactly the access predicates among them.
func FuzzIndexAgreesWithEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, []byte{9, 10, 11, 12})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, []byte{200, 100, 50, 25})
	ops := []predicate.Op{
		predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge,
		predicate.Prefix, predicate.Suffix, predicate.Contains, predicate.Exists,
	}
	operands := append([]any{"", "a", "ab", "b", "ba", true, false, nil}, edgeNumbers...)
	attrs := []string{"x", "y"}
	f.Fuzz(func(t *testing.T, preds, evs []byte) {
		if len(preds) > 96 {
			preds = preds[:96]
		}
		ix := New()
		var regd []predicate.P
		access := map[predicate.ID]bool{}
		seen := map[string]bool{}
		for i := 0; i+1 < len(preds); i += 2 {
			b, c := preds[i], preds[i+1]
			p := predicate.New(attrs[int(b>>7)], ops[int(b&0x7f)%len(ops)], operands[int(c&0x7f)%len(operands)])
			if k := p.String() + p.Operand.GoString(); seen[k] {
				continue // the registry interns: each predicate is added once
			} else {
				seen[k] = true
			}
			regd = append(regd, p)
			id := predicate.ID(len(regd))
			ix.Add(id, p)
			if c&0x80 != 0 {
				ix.SetAccess(id, p, true)
				access[id] = true
			}
		}
		// Remove every fifth predicate to exercise both partitions' deletes.
		removed := map[predicate.ID]bool{}
		for i := 4; i < len(regd); i += 5 {
			id := predicate.ID(i + 1)
			if !ix.Remove(id, regd[i]) {
				t.Fatalf("Remove(%d, %s) failed", id, regd[i])
			}
			removed[id] = true
		}
		for i := 0; i+1 < len(evs); i += 2 {
			ev := event.New()
			for j, a := range attrs {
				if b := evs[i+j]; b != 0 {
					ev = ev.Set(a, operands[int(b)%len(operands)])
				}
			}
			var want, wantAccess []predicate.ID
			for j, p := range regd {
				id := predicate.ID(j + 1)
				if !removed[id] && p.Eval(ev) {
					want = append(want, id)
					if access[id] {
						wantAccess = append(wantAccess, id)
					}
				}
			}
			if got := ix.Match(ev, nil); !sameIDs(got, want) {
				t.Fatalf("Match(%s)\n got %v\nwant %v", ev, sortedIDs(got), want)
			}
			if got := ix.MatchAccess(ev, nil); !sameIDs(got, wantAccess) {
				t.Fatalf("MatchAccess(%s)\n got %v\nwant %v", ev, sortedIDs(got), wantAccess)
			}
		}
	})
}
