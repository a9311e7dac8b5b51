// Package sublang parses the textual subscription language into boolexpr
// trees.
//
// Grammar (case-insensitive keywords):
//
//	expr      := orExpr
//	orExpr    := andExpr { "or" andExpr }
//	andExpr   := unary { "and" unary }
//	unary     := "not" unary | "(" expr ")" | pred
//	pred      := "exists" IDENT
//	           | IDENT relop literal
//	           | IDENT strop STRING
//	relop     := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
//	strop     := "prefix" | "suffix" | "contains"
//	literal   := NUMBER | STRING | "true" | "false"
//	IDENT     := letter { letter | digit | "_" | "." | "-" } (not a keyword)
//	STRING    := '"' ... '"' (Go escaping)
//	NUMBER    := optional "-", digits, optional fraction/exponent
//
// Example: (price < 20 or price > 90) and sym = "ACME" and not halted = true
package sublang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // relational operator
	tokLParen
	tokRParen
	tokAnd
	tokOr
	tokNot
	tokExists
	tokPrefix
	tokSuffix
	tokContains
	tokTrue
	tokFalse
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokOp:
		return "operator"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokAnd:
		return "'and'"
	case tokOr:
		return "'or'"
	case tokNot:
		return "'not'"
	case tokExists:
		return "'exists'"
	case tokPrefix:
		return "'prefix'"
	case tokSuffix:
		return "'suffix'"
	case tokContains:
		return "'contains'"
	case tokTrue:
		return "'true'"
	case tokFalse:
		return "'false'"
	default:
		return "unknown token"
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in input
}

var keywords = map[string]tokenKind{
	"and":      tokAnd,
	"or":       tokOr,
	"not":      tokNot,
	"exists":   tokExists,
	"prefix":   tokPrefix,
	"suffix":   tokSuffix,
	"contains": tokContains,
	"true":     tokTrue,
	"false":    tokFalse,
}

type lexer struct {
	src string
	pos int
}

func (lx *lexer) errorf(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...), Input: lx.src}
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '(':
		lx.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		lx.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '"':
		return lx.lexString()
	case c == '=' || c == '<' || c == '>' || c == '!':
		return lx.lexOp()
	case c == '-' || (c >= '0' && c <= '9'):
		return lx.lexNumber()
	default:
		r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if unicode.IsLetter(r) || r == '_' {
			return lx.lexIdent()
		}
		return token{}, lx.errorf(start, "unexpected character %q", r)
	}
}

func (lx *lexer) lexOp() (token, error) {
	start := lx.pos
	c := lx.src[lx.pos]
	lx.pos++
	two := func(second byte) bool {
		if lx.pos < len(lx.src) && lx.src[lx.pos] == second {
			lx.pos++
			return true
		}
		return false
	}
	switch c {
	case '=':
		two('=') // accept both = and ==
		return token{kind: tokOp, text: "=", pos: start}, nil
	case '!':
		if !two('=') {
			return token{}, lx.errorf(start, "expected '=' after '!'")
		}
		return token{kind: tokOp, text: "!=", pos: start}, nil
	case '<':
		if two('=') {
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		return token{kind: tokOp, text: "<", pos: start}, nil
	case '>':
		if two('=') {
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		return token{kind: tokOp, text: ">", pos: start}, nil
	}
	return token{}, lx.errorf(start, "unexpected operator start %q", c)
}

func (lx *lexer) lexString() (token, error) {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case '"':
			lx.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return token{}, lx.errorf(start, "unterminated string")
			}
			esc := lx.src[lx.pos]
			switch esc {
			case '"', '\\', '/':
				b.WriteByte(esc)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'a':
				b.WriteByte('\a')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'v':
				b.WriteByte('\v')
			case 'x', 'u', 'U':
				// Hex escapes as emitted by strconv.Quote, which prints
				// string operands: \xHH is a raw byte, \uHHHH and
				// \UHHHHHHHH are runes. Without these, printed
				// subscriptions containing non-printable or non-UTF-8
				// string operands would not re-parse.
				n := 2
				if esc == 'u' {
					n = 4
				} else if esc == 'U' {
					n = 8
				}
				v, err := lx.hexDigits(n)
				if err != nil {
					return token{}, err
				}
				if esc == 'x' {
					b.WriteByte(byte(v))
				} else {
					if v > unicode.MaxRune || (v >= 0xD800 && v <= 0xDFFF) {
						return token{}, lx.errorf(lx.pos, "escape \\%c is not a valid rune", esc)
					}
					b.WriteRune(rune(v))
				}
			default:
				return token{}, lx.errorf(lx.pos, "unknown escape \\%c", esc)
			}
			lx.pos++
		default:
			b.WriteByte(c)
			lx.pos++
		}
	}
	return token{}, lx.errorf(start, "unterminated string")
}

// hexDigits consumes n hex digits following the current escape letter and
// returns their value, leaving lx.pos on the last digit.
func (lx *lexer) hexDigits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		lx.pos++
		if lx.pos >= len(lx.src) {
			return 0, lx.errorf(lx.pos, "truncated hex escape")
		}
		c := lx.src[lx.pos]
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, lx.errorf(lx.pos, "bad hex digit %q in escape", c)
		}
		v = v<<4 | uint32(d)
	}
	return v, nil
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	if lx.src[lx.pos] == '-' {
		lx.pos++
		if lx.pos >= len(lx.src) || lx.src[lx.pos] < '0' || lx.src[lx.pos] > '9' {
			return token{}, lx.errorf(start, "expected digit after '-'")
		}
	}
	digits := func() {
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.pos++
		}
	}
	digits()
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.pos++
		if lx.pos >= len(lx.src) || lx.src[lx.pos] < '0' || lx.src[lx.pos] > '9' {
			return token{}, lx.errorf(lx.pos, "expected digit after '.'")
		}
		digits()
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos >= len(lx.src) || lx.src[lx.pos] < '0' || lx.src[lx.pos] > '9' {
			return token{}, lx.errorf(lx.pos, "expected digit in exponent")
		}
		digits()
	}
	return token{kind: tokNumber, text: lx.src[start:lx.pos], pos: start}, nil
}

func (lx *lexer) lexIdent() (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) {
		if c := lx.src[lx.pos]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '.' || c == '-' {
				lx.pos++
				continue
			}
			break
		}
		r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			lx.pos += w
			continue
		}
		break
	}
	text := lx.src[start:lx.pos]
	if kind, ok := keywords[strings.ToLower(text)]; ok {
		return token{kind: kind, text: text, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}
