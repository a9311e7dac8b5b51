package subtree

import (
	"errors"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
)

// FuzzCompile: every filter the parser accepts compiles in both encodings
// (the paper layout may refuse a node of more than 255 children), Decode
// gives back an equal expression, PredIDs are distinct and sorted, each
// compile takes exactly one registry reference per listed predicate, and
// releasing those references empties the registry again.
func FuzzCompile(f *testing.F) {
	for _, s := range []string{
		"x > -0.0 and x > 0 and y = 1",
		"z = 3 or z = 3.0 or not z = 3",
		`(bucket = 1042 and (price > 91000 or price <= 41000)) and (vol >= 13370 or not region = "r2")`,
		`(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)`,
		`s prefix "ab" and not (s suffix "yz" or exists t) and s contains "\x00"`,
		"flag = true and flag != false and n >= 1e300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e, err := sublang.Parse(text)
		if err != nil {
			return
		}
		reg := predicate.NewRegistry()
		var held [][]predicate.ID
		for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
			c, err := Compile(e, reg.Intern, Options{Encoding: enc})
			if enc == PaperEncoding && errors.Is(err, ErrTooManyChildren) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: compile %q: %v", enc, text, err)
			}
			back, err := Decode(c.Code, reg.Get)
			if err != nil {
				t.Fatalf("%s: decode %q: %v", enc, text, err)
			}
			if !boolexpr.Equal(e, back) {
				t.Fatalf("%s: %q decodes to %s", enc, text, back)
			}
			for i, id := range c.PredIDs {
				if i > 0 && id <= c.PredIDs[i-1] {
					t.Fatalf("%s: PredIDs %v not strictly increasing", enc, c.PredIDs)
				}
				if got, want := reg.Refs(id), uint32(len(held)+1); got != want {
					t.Fatalf("%s: predicate %d holds %d references, want %d", enc, id, got, want)
				}
			}
			held = append(held, c.PredIDs)
		}
		for _, ids := range held {
			for _, id := range ids {
				if _, err := reg.Release(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if reg.Len() != 0 {
			t.Fatalf("%d predicates left after releasing every reference", reg.Len())
		}
	})
}
