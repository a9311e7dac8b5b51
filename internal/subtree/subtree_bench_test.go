package subtree

import (
	"math/rand"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

func benchCompiled(b *testing.B, opts Options) (Compiled, map[predicate.ID]bool) {
	b.Helper()
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, opts)
	if err != nil {
		b.Fatal(err)
	}
	matched := map[predicate.ID]bool{
		ti.idOf("a > 10"):  true,
		ti.idOf("c <= 20"): true,
	}
	return c, matched
}

func BenchmarkEvalPaper(b *testing.B) {
	c, matched := benchCompiled(b, Options{})
	fn := func(id predicate.ID) bool { return matched[id] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(c.Code, fn)
	}
}

func BenchmarkEvalCompact(b *testing.B) {
	c, matched := benchCompiled(b, Options{Encoding: CompactEncoding})
	fn := func(id predicate.ID) bool { return matched[id] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(c.Code, fn)
	}
}

func BenchmarkCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	exprs := make([]boolexpr.Expr, 64)
	for i := range exprs {
		exprs[i] = boolexpr.RandomExpr(rng, boolexpr.RandomConfig{MaxDepth: 4, MaxFanout: 4})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := newInterner()
		if _, err := Compile(exprs[i%len(exprs)], ti.intern, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	ti := newInterner()
	c, err := Compile(fig1(), ti.intern, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(c.Code, ti.lookup); err != nil {
			b.Fatal(err)
		}
	}
}
