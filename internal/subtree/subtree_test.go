package subtree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

// testInterner is a minimal stand-in for predicate.Registry: one ID per
// distinct predicate.Key.
type testInterner struct {
	ids   map[predicate.Key]predicate.ID
	preds map[predicate.ID]predicate.P
	calls int
}

func newInterner() *testInterner {
	return &testInterner{ids: map[predicate.Key]predicate.ID{}, preds: map[predicate.ID]predicate.P{}}
}

func (ti *testInterner) intern(p predicate.P) predicate.ID {
	ti.calls++
	k := p.Key()
	if id, ok := ti.ids[k]; ok {
		return id
	}
	id := predicate.ID(len(ti.ids) + 1)
	ti.ids[k] = id
	ti.preds[id] = p
	return id
}

// idOf returns the ID of the predicate printed as s, or 0.
func (ti *testInterner) idOf(s string) predicate.ID {
	for id, p := range ti.preds {
		if p.String() == s {
			return id
		}
	}
	return 0
}

func (ti *testInterner) lookup(id predicate.ID) (predicate.P, error) {
	p, ok := ti.preds[id]
	if !ok {
		return predicate.P{}, fmt.Errorf("unknown id %d", id)
	}
	return p, nil
}

func fig1() boolexpr.Expr {
	return boolexpr.NewAnd(
		boolexpr.NewOr(
			boolexpr.Pred("a", predicate.Gt, 10),
			boolexpr.Pred("a", predicate.Le, 5),
			boolexpr.Pred("b", predicate.Eq, 1),
		),
		boolexpr.NewOr(
			boolexpr.Pred("c", predicate.Le, 20),
			boolexpr.Pred("c", predicate.Eq, 30),
			boolexpr.Pred("d", predicate.Eq, 5),
		),
	)
}

func TestCompileFig1PaperLayout(t *testing.T) {
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper cost model: leaf = 1+4, or-node = 1+1+3*(2+5) = 23,
	// and-node = 1+1+2*(2+23) = 52, header = 1 → 53 bytes total.
	if len(c.Code) != 53 {
		t.Errorf("code size = %d, want 53 (paper byte costs)", len(c.Code))
	}
	if len(c.PredIDs) != 6 {
		t.Errorf("PredIDs = %v, want 6 distinct", c.PredIDs)
	}
	if c.ZeroSat {
		t.Error("fig1 is not zero-satisfiable")
	}
	if c.Code[0] != headerPaper {
		t.Errorf("header = 0x%02x", c.Code[0])
	}
}

func TestCompileDedupsSharedPredicates(t *testing.T) {
	ti := newInterner()
	p := boolexpr.Pred("a", predicate.Eq, 1)
	e := boolexpr.NewOr(
		boolexpr.NewAnd(p, boolexpr.Pred("b", predicate.Eq, 2)),
		boolexpr.NewAnd(p, boolexpr.Pred("c", predicate.Eq, 3)),
	)
	c, err := Compile(e, ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PredIDs) != 3 {
		t.Errorf("PredIDs = %v, want 3 distinct", c.PredIDs)
	}
	if ti.calls != 3 {
		t.Errorf("intern called %d times, want 3 (once per distinct predicate)", ti.calls)
	}
}

func TestCompileZeroSat(t *testing.T) {
	ti := newInterner()
	c, err := Compile(boolexpr.NewNot(boolexpr.Pred("a", predicate.Eq, 1)), ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.ZeroSat {
		t.Error("not(a=1) must be flagged zero-satisfiable")
	}
}

func TestCompileErrors(t *testing.T) {
	ti := newInterner()
	// Empty operator node (not constructible via NewAnd, but via literal).
	if _, err := Compile(boolexpr.And{}, ti.intern, Options{}); !errors.Is(err, ErrEmptyNode) {
		t.Errorf("empty And err = %v", err)
	}
	// >255 children.
	xs := make([]boolexpr.Expr, 256)
	for i := range xs {
		xs[i] = boolexpr.Pred("a", predicate.Eq, i)
	}
	if _, err := Compile(boolexpr.And{Xs: xs}, ti.intern, Options{}); !errors.Is(err, ErrTooManyChildren) {
		t.Errorf("256-child err = %v", err)
	}
	// Compact encoding accepts the same 256-child node.
	if _, err := Compile(boolexpr.And{Xs: xs}, ti.intern, Options{Encoding: CompactEncoding}); err != nil {
		t.Errorf("compact 256-child err = %v", err)
	}
	// Unknown encoding.
	if _, err := Compile(fig1(), ti.intern, Options{Encoding: Encoding(9)}); err == nil {
		t.Error("unknown encoding must fail")
	}
}

func TestEvalFig1(t *testing.T) {
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		for _, reorder := range []bool{false, true} {
			ti := newInterner()
			c, err := Compile(fig1(), ti.intern, Options{Encoding: enc, Reorder: reorder})
			if err != nil {
				t.Fatal(err)
			}
			idOf := ti.idOf
			tests := []struct {
				matched []predicate.ID
				want    bool
			}{
				{[]predicate.ID{idOf("a > 10"), idOf("c <= 20")}, true},
				{[]predicate.ID{idOf("b = 1"), idOf("d = 5")}, true},
				{[]predicate.ID{idOf("a > 10")}, false},
				{[]predicate.ID{idOf("c = 30")}, false},
				{nil, false},
			}
			for i, tt := range tests {
				set := map[predicate.ID]bool{}
				for _, id := range tt.matched {
					set[id] = true
				}
				got := Eval(c.Code, func(id predicate.ID) bool { return set[id] })
				if got != tt.want {
					t.Errorf("enc=%s reorder=%v case %d: Eval = %v, want %v", enc, reorder, i, got, tt.want)
				}
			}
		}
	}
}

func TestEvalMatchesASTProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := boolexpr.RandomConfig{MaxDepth: 5, MaxFanout: 4, AllowNot: true}
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		for _, reorder := range []bool{false, true} {
			for i := 0; i < 300; i++ {
				e := boolexpr.RandomExpr(rng, cfg)
				ti := newInterner()
				c, err := Compile(e, ti.intern, Options{Encoding: enc, Reorder: reorder})
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 10; trial++ {
					seed := rng.Int63()
					astAssign := func(p predicate.P) bool {
						h := int64(0)
						for _, b := range []byte(p.String()) {
							h = h*131 + int64(b)
						}
						return (h^seed)%3 == 0
					}
					// Build the equivalent ID-level set.
					matched := map[predicate.ID]bool{}
					for k, id := range ti.ids {
						p, _ := ti.lookup(id)
						_ = k
						matched[id] = astAssign(p)
					}
					got := Eval(c.Code, func(id predicate.ID) bool { return matched[id] })
					want := e.EvalWith(astAssign)
					if got != want {
						t.Fatalf("enc=%s reorder=%v iter=%d: Eval=%v AST=%v\nexpr: %s", enc, reorder, i, got, want, e)
					}
				}
			}
		}
	}
}

// checkResolver answers from a set and fails the test when asked about a
// leaf the mark table already stamps.
type checkResolver struct {
	t     *testing.T
	set   map[predicate.ID]bool
	marks []uint32
	epoch uint32
}

func (r checkResolver) Resolve(id predicate.ID) bool {
	if r.marks[id-1] == r.epoch {
		r.t.Fatalf("resolver asked about stamped leaf %d", id)
	}
	return r.set[id]
}

func TestEvalMarkedMatchesEvalProperty(t *testing.T) {
	// The engine fast path (EvalMarked over an epoch-stamped mark table)
	// must agree with the closure-based Eval on random expressions and
	// fulfilled sets, for both encodings — with a nil resolver, and with a
	// resolver deciding the fulfilled leaves the table leaves unstamped.
	rng := rand.New(rand.NewSource(44))
	cfg := boolexpr.RandomConfig{MaxDepth: 5, MaxFanout: 4, AllowNot: true}
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		for i := 0; i < 200; i++ {
			e := boolexpr.RandomExpr(rng, cfg)
			ti := newInterner()
			c, err := Compile(e, ti.intern, Options{Encoding: enc})
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				epoch := uint32(trial + 1)
				marks := make([]uint32, len(ti.ids)+3)
				set := map[predicate.ID]bool{}
				for _, id := range ti.ids {
					if rng.Intn(2) == 0 {
						marks[id-1] = epoch
						set[id] = true
					}
				}
				got := EvalMarked(c.Code, 1, marks, epoch, nil)
				want := Eval(c.Code, func(id predicate.ID) bool { return set[id] })
				if got != want {
					t.Fatalf("enc=%s iter=%d: EvalMarked=%v Eval=%v\nexpr: %s", enc, i, got, want, e)
				}
				// Unstamp some fulfilled leaves; the resolver supplies them.
				for id := range set {
					if rng.Intn(2) == 0 {
						marks[id-1] = 0
					}
				}
				r := checkResolver{t: t, set: set, marks: marks, epoch: epoch}
				if got := EvalMarked(c.Code, 1, marks, epoch, r); got != want {
					t.Fatalf("enc=%s iter=%d: resolved EvalMarked=%v Eval=%v\nexpr: %s", enc, i, got, want, e)
				}
			}
		}
	}
	// Degenerate inputs.
	if EvalMarked(nil, 1, nil, 1, nil) || EvalMarked([]byte{headerPaper}, 1, nil, 1, nil) {
		t.Error("EvalMarked of short code must be false")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	cfg := boolexpr.RandomConfig{MaxDepth: 5, MaxFanout: 4, AllowNot: true}
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		for i := 0; i < 200; i++ {
			e := boolexpr.RandomExpr(rng, cfg)
			ti := newInterner()
			c, err := Compile(e, ti.intern, Options{Encoding: enc})
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(c.Code, ti.lookup)
			if err != nil {
				t.Fatalf("enc=%s iter=%d: Decode: %v", enc, i, err)
			}
			if !boolexpr.Equal(e, back) {
				t.Fatalf("enc=%s iter=%d: round trip differs\norig: %s\nback: %s", enc, i, e, back)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All truncations must error, never panic.
	for n := 0; n < len(c.Code); n++ {
		if _, err := Decode(c.Code[:n], ti.lookup); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Single-byte corruptions must error or decode to a *valid* tree (some
	// flips only change a predicate ID to another registered one).
	for pos := 0; pos < len(c.Code); pos++ {
		mut := append([]byte(nil), c.Code...)
		mut[pos] ^= 0xFF
		if e, err := Decode(mut, ti.lookup); err == nil {
			if e == nil {
				t.Errorf("corruption at %d: nil expr without error", pos)
			}
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte(nil), c.Code...), 0x00), ti.lookup); err == nil {
		t.Error("trailing byte accepted")
	}
	// Unknown header.
	if _, err := Decode([]byte{0x77, opLeaf, 0, 0, 0, 0}, ti.lookup); err == nil {
		t.Error("unknown header accepted")
	}
	// Validate mirrors Decode.
	if err := Validate(c.Code, ti.lookup); err != nil {
		t.Errorf("Validate of good code: %v", err)
	}
	if err := Validate(c.Code[:5], ti.lookup); err == nil {
		t.Error("Validate of truncated code passed")
	}
}

func TestDecodeRejectsCorruptionCompact(t *testing.T) {
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, Options{Encoding: CompactEncoding})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(c.Code); n++ {
		if _, err := Decode(c.Code[:n], ti.lookup); err == nil {
			t.Errorf("compact truncation to %d bytes accepted", n)
		}
	}
	for pos := 1; pos < len(c.Code); pos++ {
		mut := append([]byte(nil), c.Code...)
		mut[pos] ^= 0xFF
		_, _ = Decode(mut, ti.lookup) // must not panic
	}
	if _, err := Decode(append(append([]byte(nil), c.Code...), 0x00), ti.lookup); err == nil {
		t.Error("compact trailing byte accepted")
	}
}

func TestCountEvaluatedLeavesBothEncodings(t *testing.T) {
	for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
		ti := newInterner()
		c, err := Compile(fig1(), ti.intern, Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		// Nothing fulfilled: the And fails after exhausting the first Or's
		// three leaves.
		res, leaves := CountEvaluatedLeaves(c.Code, func(predicate.ID) bool { return false })
		if res || leaves != 3 {
			t.Errorf("enc=%s: res=%v leaves=%d, want false/3", enc, res, leaves)
		}
		// Everything fulfilled: each Or succeeds at its first leaf.
		res, leaves = CountEvaluatedLeaves(c.Code, func(predicate.ID) bool { return true })
		if !res || leaves != 2 {
			t.Errorf("enc=%s: res=%v leaves=%d, want true/2", enc, res, leaves)
		}
	}
	if res, n := CountEvaluatedLeaves(nil, nil); res || n != 0 {
		t.Error("degenerate CountEvaluatedLeaves should be false/0")
	}
	if res, n := CountEvaluatedLeaves([]byte{0x77, 0x01}, func(predicate.ID) bool { return true }); res || n != 0 {
		t.Error("unknown header CountEvaluatedLeaves should be false/0")
	}
}

func TestEvalMalformedReturnsFalse(t *testing.T) {
	if Eval(nil, nil) || Eval([]byte{headerPaper}, nil) {
		t.Error("Eval of short code must be false")
	}
	if Eval([]byte{0x00, 0x00}, nil) {
		t.Error("Eval of unknown header must be false")
	}
}

func TestCompactSmallerThanPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := boolexpr.RandomConfig{MaxDepth: 5, MaxFanout: 4}
	for i := 0; i < 100; i++ {
		e := boolexpr.RandomExpr(rng, cfg)
		tiP, tiC := newInterner(), newInterner()
		p, err := Compile(e, tiP.intern, Options{Encoding: PaperEncoding})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(e, tiC.intern, Options{Encoding: CompactEncoding})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Code) > len(p.Code) {
			t.Fatalf("iter %d: compact %dB > paper %dB for %s", i, len(c.Code), len(p.Code), e)
		}
	}
}

func TestReorderPutsLeavesFirst(t *testing.T) {
	// (big-subtree AND leaf): with reorder the leaf is evaluated first, so
	// a false leaf short-circuits before touching the subtree.
	big := boolexpr.NewOr(
		boolexpr.Pred("x", predicate.Eq, 1),
		boolexpr.Pred("x", predicate.Eq, 2),
		boolexpr.Pred("x", predicate.Eq, 3),
		boolexpr.Pred("x", predicate.Eq, 4),
	)
	leaf := boolexpr.Pred("g", predicate.Eq, 0)
	e := boolexpr.NewAnd(big, leaf)

	evalLeaves := func(reorder bool) int {
		ti := newInterner()
		c, err := Compile(e, ti.intern, Options{Reorder: reorder})
		if err != nil {
			t.Fatal(err)
		}
		// Nothing matches: the And must fail.
		_, n := CountEvaluatedLeaves(c.Code, func(predicate.ID) bool { return false })
		return n
	}
	plain, reordered := evalLeaves(false), evalLeaves(true)
	if plain <= reordered {
		t.Errorf("reorder did not help: plain=%d reordered=%d leaves", plain, reordered)
	}
	if reordered != 1 {
		t.Errorf("reordered eval should stop after the false leaf, inspected %d", reordered)
	}
}

func TestMemBytes(t *testing.T) {
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.MemBytes() < len(c.Code)+4*len(c.PredIDs) {
		t.Errorf("MemBytes %d too small", c.MemBytes())
	}
}

func TestEncodingString(t *testing.T) {
	if PaperEncoding.String() != "paper" || CompactEncoding.String() != "compact" {
		t.Error("Encoding.String wrong")
	}
	if Encoding(9).String() == "" {
		t.Error("unknown encoding String empty")
	}
}
