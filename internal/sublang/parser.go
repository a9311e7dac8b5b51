package sublang

import (
	"fmt"
	"strconv"
	"strings"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
	"noncanon/internal/value"
)

// ParseError describes a syntax error with its byte position in the input.
type ParseError struct {
	Pos   int
	Msg   string
	Input string
}

// Error renders the message with a caret excerpt of the offending input.
func (e *ParseError) Error() string {
	excerpt := e.Input
	const window = 30
	lo := e.Pos - window
	if lo < 0 {
		lo = 0
	}
	hi := e.Pos + window
	if hi > len(excerpt) {
		hi = len(excerpt)
	}
	return fmt.Sprintf("sublang: %s at offset %d near %q", e.Msg, e.Pos, excerpt[lo:hi])
}

// MaxPredicates bounds the number of predicate leaves in one subscription so
// that a hostile input cannot exhaust broker memory. It matches the
// counting-baseline assumption of at most 256 predicates per subscription
// (paper §3.3).
const MaxPredicates = 256

type parser struct {
	lx    lexer
	tok   token
	npred int
}

// Parse parses a subscription expression.
func Parse(input string) (boolexpr.Expr, error) {
	if strings.TrimSpace(input) == "" {
		return nil, &ParseError{Pos: 0, Msg: "empty subscription", Input: input}
	}
	p := &parser{lx: lexer{src: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.tok.kind)
	}
	return e, nil
}

// MustParse parses input and panics on error. For tests and examples with
// literal subscriptions only.
func MustParse(input string) boolexpr.Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) advance() error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...), Input: p.lx.src}
}

func (p *parser) parseOr() (boolexpr.Expr, error) { return p.parseNary(tokOr, p.parseAnd) }

func (p *parser) parseAnd() (boolexpr.Expr, error) { return p.parseNary(tokAnd, p.parseUnary) }

// parseNary parses operands separated by sep (tokOr or tokAnd) into one Or
// or And, flattening an operand of the same operator into it as
// boolexpr.NewOr and NewAnd do. A lone operand is returned as it is.
func (p *parser) parseNary(sep tokenKind, operand func() (boolexpr.Expr, error)) (boolexpr.Expr, error) {
	x, err := operand()
	if err != nil || p.tok.kind != sep {
		return x, err
	}
	xs := appendOperand(make([]boolexpr.Expr, 0, 2), x, sep)
	for p.tok.kind == sep {
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := operand()
		if err != nil {
			return nil, err
		}
		xs = appendOperand(xs, y, sep)
	}
	if sep == tokOr {
		return boolexpr.Or{Xs: xs}, nil
	}
	return boolexpr.And{Xs: xs}, nil
}

func appendOperand(xs []boolexpr.Expr, x boolexpr.Expr, sep tokenKind) []boolexpr.Expr {
	switch t := x.(type) {
	case boolexpr.Or:
		if sep == tokOr {
			return append(xs, t.Xs...)
		}
	case boolexpr.And:
		if sep == tokAnd {
			return append(xs, t.Xs...)
		}
	}
	return append(xs, x)
}

func (p *parser) parseUnary() (boolexpr.Expr, error) {
	switch p.tok.kind {
	case tokNot:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return boolexpr.NewNot(x), nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errorf("expected ')', got %s", p.tok.kind)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return x, nil
	case tokExists:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected attribute after 'exists', got %s", p.tok.kind)
		}
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.leaf(predicate.Make(attr, predicate.Exists, value.Value{}))
	case tokIdent:
		return p.parsePredicate()
	default:
		return nil, p.errorf("expected predicate, 'not' or '(', got %s", p.tok.kind)
	}
}

func (p *parser) parsePredicate() (boolexpr.Expr, error) {
	attr := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokOp:
		op, err := relOp(p.tok.text)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		operand, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return p.leaf(predicate.Make(attr, op, operand))
	case tokPrefix, tokSuffix, tokContains:
		op := predicate.Contains
		switch p.tok.kind {
		case tokPrefix:
			op = predicate.Prefix
		case tokSuffix:
			op = predicate.Suffix
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("expected string after '%s', got %s", op, p.tok.kind)
		}
		operand := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.leaf(predicate.Make(attr, op, value.OfString(operand)))
	default:
		return nil, p.errorf("expected comparison operator after %q, got %s", attr, p.tok.kind)
	}
}

func (p *parser) leaf(pred predicate.P) (boolexpr.Expr, error) {
	p.npred++
	if p.npred > MaxPredicates {
		return nil, p.errorf("subscription exceeds %d predicates", MaxPredicates)
	}
	return boolexpr.Leaf{Pred: pred}, nil
}

func relOp(text string) (predicate.Op, error) {
	switch text {
	case "=":
		return predicate.Eq, nil
	case "!=":
		return predicate.Ne, nil
	case "<":
		return predicate.Lt, nil
	case "<=":
		return predicate.Le, nil
	case ">":
		return predicate.Gt, nil
	case ">=":
		return predicate.Ge, nil
	default:
		return 0, fmt.Errorf("unknown operator %q", text)
	}
}

func (p *parser) parseLiteral() (value.Value, error) {
	switch p.tok.kind {
	case tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return value.Value{}, err
		}
		if !strings.ContainsAny(text, ".eE") {
			if n, err := strconv.ParseInt(text, 10, 64); err == nil {
				return value.OfInt(n), nil
			}
			// Fall through to float for out-of-range integers.
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return value.Value{}, p.errorf("bad number %q", text)
		}
		return value.OfFloat(f), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return value.Value{}, err
		}
		return value.OfString(s), nil
	case tokTrue, tokFalse:
		b := p.tok.kind == tokTrue
		if err := p.advance(); err != nil {
			return value.Value{}, err
		}
		return value.OfBool(b), nil
	default:
		return value.Value{}, p.errorf("expected literal, got %s", p.tok.kind)
	}
}
