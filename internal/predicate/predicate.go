// Package predicate defines attribute-operator-value filters — the leaves of
// subscription expressions — and a registry that interns them.
//
// Predicates may be shared among subscriptions (the paper, §3.1); the
// registry deduplicates structurally identical predicates and hands out
// stable numeric IDs that the rest of the system (indexes, association
// tables, encoded subscription trees) uses in place of the predicate itself.
package predicate

import (
	"fmt"

	"noncanon/internal/event"
	"noncanon/internal/intern"
	"noncanon/internal/value"
)

// ID identifies a registered predicate. The paper's encoding reserves four
// bytes per leaf, so IDs are 32-bit.
type ID uint32

// Op enumerates the comparison operators of the subscription language.
type Op uint8

// Supported operators. Numeric attributes support the six relational
// operators; strings support equality, inequality, ordering and the
// substring family; Exists tests mere attribute presence.
const (
	Eq       Op = iota + 1 // =
	Ne                     // !=
	Lt                     // <
	Le                     // <=
	Gt                     // >
	Ge                     // >=
	Prefix                 // prefix-of: attr value starts with operand
	Suffix                 // suffix-of
	Contains               // substring
	Exists                 // attribute present (operand ignored)
)

// String returns the subscription-language spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Prefix:
		return "prefix"
	case Suffix:
		return "suffix"
	case Contains:
		return "contains"
	case Exists:
		return "exists"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined operator.
func (o Op) Valid() bool { return o >= Eq && o <= Exists }

// P is a predicate: an attribute-operator-operand triple. Sym is Attr's
// interned symbol; the constructors fill it, and literal construction may
// leave it intern.None, in which case evaluation falls back to comparing
// Attr by name.
type P struct {
	Attr    string
	Sym     intern.Sym
	Op      Op
	Operand value.Value
}

// New builds a predicate from a native operand value. Registering a
// subscription is what defines the local attribute vocabulary, so New
// interns the attribute name, and Attr is the intern table's own copy of
// it: a predicate outlives the text it was parsed from without pinning it.
func New(attr string, op Op, operand any) P {
	return Make(attr, op, value.Of(operand))
}

// Make is New for an operand already in value form.
func Make(attr string, op Op, operand value.Value) P {
	sym := intern.Of(attr)
	return P{Attr: intern.Name(sym), Sym: sym, Op: op, Operand: operand}
}

// String renders the predicate in subscription-language syntax.
func (p P) String() string {
	if p.Op == Exists {
		return fmt.Sprintf("exists %s", p.Attr)
	}
	switch p.Op {
	case Prefix, Suffix, Contains:
		return fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Operand)
	default:
		return fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Operand)
	}
}

// Eval applies the predicate to an event. Missing attributes and
// type-incompatible comparisons evaluate to false (never error), matching
// standard pub/sub semantics.
func (p P) Eval(e event.Event) bool {
	v, ok := e.GetSym(p.Sym, p.Attr)
	if p.Op == Exists {
		return ok
	}
	if !ok {
		return false
	}
	return p.EvalValue(v)
}

// EvalValue applies the predicate's comparison to a concrete value.
func (p P) EvalValue(v value.Value) bool {
	switch p.Op {
	case Eq:
		return v.Equal(p.Operand)
	case Ne:
		c, ok := v.Compare(p.Operand)
		return ok && c != 0
	case Lt:
		c, ok := v.Compare(p.Operand)
		return ok && c < 0
	case Le:
		c, ok := v.Compare(p.Operand)
		return ok && c <= 0
	case Gt:
		c, ok := v.Compare(p.Operand)
		return ok && c > 0
	case Ge:
		c, ok := v.Compare(p.Operand)
		return ok && c >= 0
	case Prefix:
		return stringPair(v, p.Operand, hasPrefix)
	case Suffix:
		return stringPair(v, p.Operand, hasSuffix)
	case Contains:
		return stringPair(v, p.Operand, contains)
	case Exists:
		return v.IsValid()
	default:
		return false
	}
}

func stringPair(v, operand value.Value, fn func(s, sub string) bool) bool {
	if v.Kind() != value.String || operand.Kind() != value.String {
		return false
	}
	return fn(v.Str(), operand.Str())
}

func hasPrefix(s, pre string) bool {
	return len(s) >= len(pre) && s[:len(pre)] == pre
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Key is the registry's identity of a predicate: structurally identical
// predicates (with numerically unified operands, see value.Key) have equal
// Keys and intern to one ID. It is comparable.
type Key struct {
	attr string
	op   Op
	val  value.Key
}

// Key returns the predicate's registry identity.
func (p P) Key() Key { return Key{attr: p.Attr, op: p.Op, val: p.Operand.Key()} }

// MemBytes estimates the resident size of the predicate.
func (p P) MemBytes() int {
	const structOverhead = 16 /* string header */ + 1 /* op */ + 7 /* pad */
	return structOverhead + len(p.Attr) + p.Operand.MemBytes()
}
