package subtree

import (
	"encoding/binary"

	"noncanon/internal/predicate"
)

// Resolver decides the leaves of a tree that a mark table leaves
// unstamped (see EvalMarked).
type Resolver interface {
	Resolve(id predicate.ID) bool
}

// resolveFunc adapts a membership function to a Resolver.
type resolveFunc func(predicate.ID) bool

func (f resolveFunc) Resolve(id predicate.ID) bool { return f(id) }

// Eval evaluates a compiled subscription tree against the set of fulfilled
// predicates, provided as a membership function. It is EvalMarked with an
// empty mark table.
//
// Eval assumes code was produced by Compile; Validate rejects foreign bytes.
func Eval(code []byte, matched func(predicate.ID) bool) bool {
	return EvalMarked(code, 1, nil, 0, resolveFunc(matched))
}

// EvalMarked is the engines' evaluator. It evaluates the subtree rooted at
// byte offset off of code — 1 is the whole tree, and Conjuncts yields the
// others — over an epoch-stamped mark table indexed by predicate ID, so no
// per-event clearing is needed. A leaf with marks[id-1] == epoch holds.
// Any other leaf is decided by r, or is false when r is nil. With neither
// marks nor r it reports whether the subtree holds with nothing
// fulfilled.
//
// Evaluation short-circuits: a failing conjunct ends its And, a succeeding
// disjunct ends its Or; sibling widths let the evaluator skip unevaluated
// subtrees without touching their bytes, and r is asked only about leaves
// the walk reaches.
//
//nclint:hotpath
func EvalMarked(code []byte, off int, marks []uint32, epoch uint32, r Resolver) bool {
	if len(code) < 2 {
		return false
	}
	switch code[0] {
	case headerPaper:
		return evalPaper(code, off, marks, epoch, r)
	case headerCompact:
		return evalCompact(code, off, marks, epoch, r)
	default:
		return false
	}
}

//nclint:hotpath
func evalPaper(code []byte, off int, marks []uint32, epoch uint32, r Resolver) bool {
	switch code[off] {
	case opLeaf:
		id := binary.LittleEndian.Uint32(code[off+1:])
		if i := int(id) - 1; i >= 0 && i < len(marks) && marks[i] == epoch {
			return true
		}
		return r != nil && r.Resolve(predicate.ID(id))
	case opNot:
		return !evalPaper(code, off+3, marks, epoch, r)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count := int(code[off+1])
		p := off + 2
		for i := 0; i < count; i++ {
			w := int(binary.LittleEndian.Uint16(code[p:]))
			if evalPaper(code, p+2, marks, epoch, r) != isAnd {
				// And with a false child, or Or with a true child: decided.
				return !isAnd
			}
			p += 2 + w
		}
		return isAnd
	default:
		return false
	}
}

//nclint:hotpath
func evalCompact(code []byte, off int, marks []uint32, epoch uint32, r Resolver) bool {
	switch code[off] {
	case opLeaf:
		id, _ := binary.Uvarint(code[off+1:])
		if i := int(id) - 1; i >= 0 && i < len(marks) && marks[i] == epoch {
			return true
		}
		return r != nil && r.Resolve(predicate.ID(id))
	case opNot:
		_, n := binary.Uvarint(code[off+1:])
		return !evalCompact(code, off+1+n, marks, epoch, r)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count, n := binary.Uvarint(code[off+1:])
		p := off + 1 + n
		for i := uint64(0); i < count; i++ {
			w, wn := binary.Uvarint(code[p:])
			if evalCompact(code, p+wn, marks, epoch, r) != isAnd {
				return !isAnd
			}
			p += wn + int(w)
		}
		return isAnd
	default:
		return false
	}
}

// CountEvaluatedLeaves evaluates like Eval but also reports how many leaf
// predicates were actually inspected — the instrumentation behind the A1
// (child reordering) ablation.
func CountEvaluatedLeaves(code []byte, matched func(predicate.ID) bool) (result bool, leaves int) {
	count := func(id predicate.ID) bool {
		leaves++
		return matched(id)
	}
	result = Eval(code, count)
	return result, leaves
}
