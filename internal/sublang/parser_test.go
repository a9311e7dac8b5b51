package sublang

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/intern"
	"noncanon/internal/predicate"
)

func TestParseSimplePredicates(t *testing.T) {
	tests := []struct {
		in   string
		want boolexpr.Expr
	}{
		{`a = 1`, boolexpr.Pred("a", predicate.Eq, 1)},
		{`a == 1`, boolexpr.Pred("a", predicate.Eq, 1)},
		{`a != 1`, boolexpr.Pred("a", predicate.Ne, 1)},
		{`a < 1`, boolexpr.Pred("a", predicate.Lt, 1)},
		{`a <= 1`, boolexpr.Pred("a", predicate.Le, 1)},
		{`a > 1`, boolexpr.Pred("a", predicate.Gt, 1)},
		{`a >= 1`, boolexpr.Pred("a", predicate.Ge, 1)},
		{`a = -3`, boolexpr.Pred("a", predicate.Eq, -3)},
		{`a = 2.5`, boolexpr.Pred("a", predicate.Eq, 2.5)},
		{`a = 1e3`, boolexpr.Pred("a", predicate.Eq, 1000.0)},
		{`a = -1.5e-2`, boolexpr.Pred("a", predicate.Eq, -0.015)},
		{`a = "x"`, boolexpr.Pred("a", predicate.Eq, "x")},
		{`a = true`, boolexpr.Pred("a", predicate.Eq, true)},
		{`a = false`, boolexpr.Pred("a", predicate.Eq, false)},
		{`exists a`, boolexpr.Pred("a", predicate.Exists, nil)},
		{`s prefix "AB"`, boolexpr.Pred("s", predicate.Prefix, "AB")},
		{`s suffix "AB"`, boolexpr.Pred("s", predicate.Suffix, "AB")},
		{`s contains "AB"`, boolexpr.Pred("s", predicate.Contains, "AB")},
		{`attr_1.x-y = 1`, boolexpr.Pred("attr_1.x-y", predicate.Eq, 1)},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if !boolexpr.Equal(got, tt.want) {
			t.Errorf("Parse(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// and binds tighter than or; not tighter than and.
	e := MustParse(`a = 1 or b = 2 and c = 3`)
	or, ok := e.(boolexpr.Or)
	if !ok || len(or.Xs) != 2 {
		t.Fatalf("top must be Or of 2: %s", e)
	}
	if _, ok := or.Xs[1].(boolexpr.And); !ok {
		t.Fatalf("right operand must be And: %s", e)
	}

	e2 := MustParse(`not a = 1 and b = 2`)
	and, ok := e2.(boolexpr.And)
	if !ok || len(and.Xs) != 2 {
		t.Fatalf("top must be And: %s", e2)
	}
	if _, ok := and.Xs[0].(boolexpr.Not); !ok {
		t.Fatalf("left operand must be Not: %s", e2)
	}
}

func TestParseParens(t *testing.T) {
	e := MustParse(`(a = 1 or b = 2) and c = 3`)
	and, ok := e.(boolexpr.And)
	if !ok || len(and.Xs) != 2 {
		t.Fatalf("top must be And: %s", e)
	}
	if _, ok := and.Xs[0].(boolexpr.Or); !ok {
		t.Fatalf("left operand must be Or: %s", e)
	}
}

func TestParseFig1(t *testing.T) {
	// The paper's Fig. 1 subscription in textual form.
	e := MustParse(`(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)`)
	ev := event.New().Set("a", 3).Set("c", 30)
	if !e.Eval(ev) {
		t.Error("fig1 should match a=3,c=30")
	}
	if e.Eval(event.New().Set("a", 7).Set("c", 30)) {
		t.Error("fig1 should not match a=7")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	e := MustParse(`a = 1 AND b = 2 Or NOT c = 3`)
	if _, ok := e.(boolexpr.Or); !ok {
		t.Fatalf("mixed-case keywords should parse: %s", e)
	}
}

func TestParseStringEscapes(t *testing.T) {
	e := MustParse(`a = "x\"y\\z\n\t\r"`)
	leaf := e.(boolexpr.Leaf)
	if got, want := leaf.Pred.Operand.Str(), "x\"y\\z\n\t\r"; got != want {
		t.Errorf("escaped string = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		in      string
		wantSub string
	}{
		{``, "empty subscription"},
		{`   `, "empty subscription"},
		{`a`, "expected comparison operator"},
		{`a =`, "expected literal"},
		{`= 1`, "expected predicate"},
		{`a = 1 and`, "expected predicate"},
		{`a = 1 or or b = 2`, "expected predicate"},
		{`(a = 1`, "expected ')'"},
		{`a = 1)`, "unexpected ')'"},
		{`a = 1 b = 2`, "unexpected identifier"},
		{`a ! 1`, "expected '='"},
		{`a = "unterminated`, "unterminated string"},
		{`a = "bad \q escape"`, "unknown escape"},
		{`a = 1.`, "expected digit after '.'"},
		{`a = 1e`, "expected digit in exponent"},
		{`a = -`, "expected digit after '-'"},
		{`a = #`, "unexpected character"},
		{`exists 5`, "expected attribute"},
		{`s prefix 5`, "expected string"},
		{`not`, "expected predicate"},
	}
	for _, tt := range tests {
		_, err := Parse(tt.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tt.in, tt.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tt.in, err, tt.wantSub)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse(`a = 1 and b @ 2`)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if pe.Pos != 12 {
		t.Errorf("error Pos = %d, want 12", pe.Pos)
	}
}

func TestMaxPredicatesLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i <= MaxPredicates; i++ {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString("a = 1")
	}
	if _, err := Parse(b.String()); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized subscription error = %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	MustParse(`a =`)
}

func TestPrintParseRoundTripProperty(t *testing.T) {
	// parse(e.String()) must be structurally equal to e for random
	// expressions: the printer and parser agree on precedence and syntax.
	rng := rand.New(rand.NewSource(31))
	cfg := boolexpr.RandomConfig{MaxDepth: 5, MaxFanout: 4, AllowNot: true}
	for i := 0; i < 500; i++ {
		e := boolexpr.RandomExpr(rng, cfg)
		text := e.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("iter %d: Parse(%q): %v", i, text, err)
		}
		if !boolexpr.Equal(e, back) {
			t.Fatalf("iter %d: round trip differs\n  orig: %s\n  back: %s", i, e, back)
		}
	}
}

func TestParseIdempotentPrint(t *testing.T) {
	// Printing a parsed expression and re-parsing yields a fixed point.
	inputs := []string{
		`a = 1 and (b = 2 or c = 3)`,
		`not (a = 1 or b = 2) and exists c`,
		`s prefix "AB" or s suffix "YZ" or s contains "MID"`,
	}
	for _, in := range inputs {
		e1 := MustParse(in)
		e2 := MustParse(e1.String())
		if !boolexpr.Equal(e1, e2) {
			t.Errorf("fixed point failed for %q:\n  e1: %s\n  e2: %s", in, e1, e2)
		}
	}
}

// TestParsedAttrIsInternTableCopy: a parsed predicate's attribute name is
// the intern table's own string, for a name seen before and for one seen
// first in this text, so a registered predicate never keeps the text it
// was parsed from alive.
func TestParsedAttrIsInternTableCopy(t *testing.T) {
	text := strings.Clone(`price > 1 and parsedAttrIsInternTableCopy = "x"`)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	for _, p := range boolexpr.Leaves(MustParse(text)) {
		at := unsafe.StringData(p.Attr)
		if at != unsafe.StringData(intern.Name(p.Sym)) {
			t.Errorf("%s: Attr is not the intern table's string", p)
		}
		if a := uintptr(unsafe.Pointer(at)); a >= lo && a < lo+uintptr(len(text)) {
			t.Errorf("%s: Attr points into the subscription text", p)
		}
	}
}
