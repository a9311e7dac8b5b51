package subtree

import (
	"encoding/binary"

	"noncanon/internal/predicate"
)

// Eval evaluates a compiled subscription tree against the set of fulfilled
// predicates, provided as a membership function (engines back it with an
// epoch-stamped lookup table so that no per-event clearing is needed).
//
// Evaluation short-circuits: a failing conjunct ends its And, a succeeding
// disjunct ends its Or; sibling widths let the evaluator skip unevaluated
// subtrees without touching their bytes.
//
// Eval assumes code was produced by Compile; Validate rejects foreign bytes.
func Eval(code []byte, matched func(predicate.ID) bool) bool {
	if len(code) < 2 {
		return false
	}
	switch code[0] {
	case headerPaper:
		return evalPaper(code, 1, matched)
	case headerCompact:
		return evalCompact(code, 1, matched)
	default:
		return false
	}
}

func evalPaper(code []byte, off int, matched func(predicate.ID) bool) bool {
	switch code[off] {
	case opLeaf:
		id := binary.LittleEndian.Uint32(code[off+1:])
		return matched(predicate.ID(id))
	case opNot:
		return !evalPaper(code, off+3, matched)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count := int(code[off+1])
		p := off + 2
		for i := 0; i < count; i++ {
			w := int(binary.LittleEndian.Uint16(code[p:]))
			if evalPaper(code, p+2, matched) != isAnd {
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

func evalCompact(code []byte, off int, matched func(predicate.ID) bool) bool {
	switch code[off] {
	case opLeaf:
		id, _ := binary.Uvarint(code[off+1:])
		return matched(predicate.ID(id))
	case opNot:
		_, n := binary.Uvarint(code[off+1:])
		return !evalCompact(code, off+1+n, matched)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count, n := binary.Uvarint(code[off+1:])
		p := off + 1 + n
		for i := uint64(0); i < count; i++ {
			w, wn := binary.Uvarint(code[p:])
			if evalCompact(code, p+wn, matched) != isAnd {
				return !isAnd
			}
			p += wn + int(w)
		}
		return isAnd
	default:
		return false
	}
}

// EvalMarked is the engine fast path: membership of the fulfilled set is an
// epoch-stamp comparison against a dense mark table indexed by predicate ID,
// avoiding a closure call per leaf. marks[id-1] == epoch means fulfilled.
//
//nclint:hotpath
func EvalMarked(code []byte, marks []uint32, epoch uint32) bool {
	if len(code) < 2 {
		return false
	}
	return EvalMarkedAt(code, 1, marks, epoch)
}

// EvalMarkedAt is EvalMarked for the subtree rooted at byte offset off of
// code (1 is the whole tree; Conjuncts yields the others). Against an empty
// mark table it reports whether the subtree holds with nothing fulfilled.
//
//nclint:hotpath
func EvalMarkedAt(code []byte, off int, marks []uint32, epoch uint32) bool {
	switch code[0] {
	case headerPaper:
		return evalPaperMarked(code, off, marks, epoch)
	case headerCompact:
		return evalCompactMarked(code, off, marks, epoch)
	default:
		return false
	}
}

//nclint:hotpath
func evalPaperMarked(code []byte, off int, marks []uint32, epoch uint32) bool {
	switch code[off] {
	case opLeaf:
		i := int(binary.LittleEndian.Uint32(code[off+1:])) - 1
		return i >= 0 && i < len(marks) && marks[i] == epoch
	case opNot:
		return !evalPaperMarked(code, off+3, marks, epoch)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count := int(code[off+1])
		p := off + 2
		for i := 0; i < count; i++ {
			w := int(binary.LittleEndian.Uint16(code[p:]))
			if evalPaperMarked(code, p+2, marks, epoch) != isAnd {
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
func evalCompactMarked(code []byte, off int, marks []uint32, epoch uint32) bool {
	switch code[off] {
	case opLeaf:
		id, _ := binary.Uvarint(code[off+1:])
		i := int(id) - 1
		return i >= 0 && i < len(marks) && marks[i] == epoch
	case opNot:
		_, n := binary.Uvarint(code[off+1:])
		return !evalCompactMarked(code, off+1+n, marks, epoch)
	case opAnd, opOr:
		isAnd := code[off] == opAnd
		count, n := binary.Uvarint(code[off+1:])
		p := off + 1 + n
		for i := uint64(0); i < count; i++ {
			w, wn := binary.Uvarint(code[p:])
			if evalCompactMarked(code, p+wn, marks, epoch) != isAnd {
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
	if len(code) < 2 {
		return false, 0
	}
	count := func(id predicate.ID) bool {
		leaves++
		return matched(id)
	}
	switch code[0] {
	case headerPaper:
		return evalPaper(code, 1, count), leaves
	case headerCompact:
		return evalCompact(code, 1, count), leaves
	default:
		return false, 0
	}
}
