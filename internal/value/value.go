// Package value defines the typed values carried by event attributes and
// predicate operands.
//
// The pub/sub data model is deliberately small: 64-bit integers, 64-bit
// floats, strings and booleans. Integers and floats compare against each
// other numerically (an event attribute price=10 fulfils the predicate
// price < 10.5), which mirrors the behaviour of the numeric domains used in
// the paper's experiments.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Value kinds. Invalid is the zero Kind so that the zero Value is
// recognisably empty.
const (
	Invalid Kind = iota
	Int
	Float
	String
	Bool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is an immutable typed scalar. The zero Value is invalid and matches
// no predicate.
type Value struct {
	kind Kind
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
	str  string
}

// OfInt returns an integer Value.
func OfInt(v int64) Value { return Value{kind: Int, num: uint64(v)} }

// OfFloat returns a floating-point Value.
func OfFloat(v float64) Value { return Value{kind: Float, num: math.Float64bits(v)} }

// OfString returns a string Value.
func OfString(v string) Value { return Value{kind: String, str: v} }

// OfBool returns a boolean Value.
func OfBool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: Bool, num: n}
}

// Of converts a native Go value into a Value. Supported inputs are the Go
// integer types, float32/float64, string and bool; any other type yields an
// invalid Value.
func Of(v any) Value {
	switch x := v.(type) {
	case int:
		return OfInt(int64(x))
	case int8:
		return OfInt(int64(x))
	case int16:
		return OfInt(int64(x))
	case int32:
		return OfInt(int64(x))
	case int64:
		return OfInt(x)
	case uint:
		return OfInt(int64(x))
	case uint8:
		return OfInt(int64(x))
	case uint16:
		return OfInt(int64(x))
	case uint32:
		return OfInt(int64(x))
	case float32:
		return OfFloat(float64(x))
	case float64:
		return OfFloat(x)
	case string:
		return OfString(x)
	case bool:
		return OfBool(x)
	case Value:
		return x
	default:
		return Value{}
	}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds data.
func (v Value) IsValid() bool { return v.kind != Invalid }

// Int returns the integer payload. It is only meaningful when Kind()==Int.
func (v Value) Int() int64 { return int64(v.num) }

// Float returns the floating-point payload. It is only meaningful when
// Kind()==Float.
func (v Value) Float() float64 { return math.Float64frombits(v.num) }

// Str returns the string payload. It is only meaningful when Kind()==String.
func (v Value) Str() string { return v.str }

// Bool returns the boolean payload. It is only meaningful when Kind()==Bool.
func (v Value) Bool() bool { return v.num != 0 }

// IsNumeric reports whether the value is an Int or Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// AsFloat converts a numeric value to float64. Non-numeric values yield
// (0, false).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(int64(v.num)), true
	case Float:
		return math.Float64frombits(v.num), true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal. Int and Float values compare
// numerically (OfInt(3).Equal(OfFloat(3)) is true); values of incomparable
// kinds are unequal.
func (v Value) Equal(w Value) bool {
	c, ok := v.Compare(w)
	return ok && c == 0
}

// Compare orders two values. It returns -1, 0 or +1 when v sorts before,
// equal to, or after w, and ok=false when the two kinds are not comparable
// (e.g. a string against an int, or either value invalid). Numeric kinds
// compare with each other; exact integer comparison is used when both sides
// are Int.
func (v Value) Compare(w Value) (cmp int, ok bool) {
	switch {
	case v.kind == Int && w.kind == Int:
		a, b := int64(v.num), int64(w.num)
		return order(a, b), true
	case v.IsNumeric() && w.IsNumeric():
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return order(a, b), true
	case v.kind == String && w.kind == String:
		switch {
		case v.str < w.str:
			return -1, true
		case v.str > w.str:
			return 1, true
		default:
			return 0, true
		}
	case v.kind == Bool && w.kind == Bool:
		return order(v.num, w.num), true
	default:
		return 0, false
	}
}

func order[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Key returns a canonical comparable representation usable as a map key.
// Numerically equal Int and Float values map to the same key so that
// predicate deduplication treats price=3 and price=3.0 as one predicate.
func (v Value) Key() Key {
	switch v.kind {
	case Int:
		// Integers strictly inside ±2^53 share the float's key so that 3
		// and 3.0 collide; outside (and at exactly ±2^53) ints are keyed
		// exactly, because there Int and Float operands stop being
		// interchangeable: Compare(Int(2^53+1), Float(2^53)) rounds to
		// "equal" on the float path while Compare against Int(2^53) is
		// exactly "greater", so conflating the operand kinds at the
		// boundary would intern semantically different predicates.
		i := int64(v.num)
		f := float64(i)
		if int64(f) == i && f > -(1<<53) && f < 1<<53 {
			return Key{kind: Float, num: math.Float64bits(f)}
		}
		return Key{kind: Int, num: v.num}
	case Float:
		f := math.Float64frombits(v.num)
		if f == 0 {
			// Normalise -0 and +0.
			return Key{kind: Float, num: 0}
		}
		return Key{kind: Float, num: v.num}
	case String:
		return Key{kind: String, str: v.str}
	case Bool:
		return Key{kind: Bool, num: v.num}
	default:
		return Key{}
	}
}

// Key is a comparable, canonicalised image of a Value, suitable for use as a
// Go map key.
type Key struct {
	kind Kind
	num  uint64
	str  string
}

// IsNumeric reports whether k is the key of an Int or Float value.
func (k Key) IsNumeric() bool { return k.kind == Int || k.kind == Float }

// KeyString renders the canonical Key as a short prefixed string, for
// embedding in composite string keys (e.g. subscription-filter interning,
// internal/cover). Equal Keys always yield equal strings; distinct Keys
// yield distinct strings, with one deliberate exception — every NaN
// bit-pattern shares a string, which is safe because Compare cannot tell
// NaNs apart. Deriving the rendering from Key keeps it in lockstep with
// the registry's interning semantics (3 and 3.0 collide, -0 normalises).
func (v Value) KeyString() string {
	k := v.Key()
	switch k.kind {
	case Int:
		return "i" + strconv.FormatInt(int64(k.num), 10)
	case Float:
		return "n" + strconv.FormatFloat(math.Float64frombits(k.num), 'g', -1, 64)
	case String:
		return "s" + strconv.Quote(k.str)
	case Bool:
		if k.num != 0 {
			return "b1"
		}
		return "b0"
	default:
		return "x"
	}
}

// String renders the value as a literal in the subscription language: quoted
// strings, bare numerals, true/false.
func (v Value) String() string {
	switch v.kind {
	case Int:
		return strconv.FormatInt(int64(v.num), 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case String:
		return strconv.Quote(v.str)
	case Bool:
		return strconv.FormatBool(v.num != 0)
	default:
		return "<invalid>"
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string {
	return fmt.Sprintf("value.Of(%s)", v.String())
}

// MemBytes estimates the resident size of the value in bytes: the struct
// itself plus string payload. Used by the memory model (experiment M1).
func (v Value) MemBytes() int {
	const structSize = 8 /* num */ + 16 /* string header */ + 1 /* kind */ + 7 /* padding */
	return structSize + len(v.str)
}
