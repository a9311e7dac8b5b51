package subtree

import (
	"encoding/binary"

	"noncanon/internal/predicate"
)

// Conjuncts appends to dst the byte offset in code of every top-level
// conjunct: each child of the root And, with children that are themselves
// Ands flattened into their parent, so `(a and (b or c)) and d` yields a,
// (b or c) and d. A tree whose root is not an And has no conjuncts and
// leaves dst unchanged. The offsets are the node arguments of
// AppendLeaves and EvalMarked.
func Conjuncts(code []byte, dst []int) []int {
	if len(code) < 2 || code[1] != opAnd {
		return dst
	}
	return appendConjuncts(code, 1, dst)
}

func appendConjuncts(code []byte, off int, dst []int) []int {
	n, p := children(code, off)
	for i := 0; i < n; i++ {
		child, next := nextChild(code, p)
		if code[child] == opAnd {
			dst = appendConjuncts(code, child, dst)
		} else {
			dst = append(dst, child)
		}
		p = next
	}
	return dst
}

// AppendLeaves appends the predicate ID of every leaf under the node at
// offset off, in encoding order and with repeats (a leaf that occurs twice
// is appended twice).
func AppendLeaves(code []byte, off int, dst []predicate.ID) []predicate.ID {
	switch code[off] {
	case opLeaf:
		if code[0] == headerCompact {
			id, _ := binary.Uvarint(code[off+1:])
			return append(dst, predicate.ID(id))
		}
		return append(dst, predicate.ID(binary.LittleEndian.Uint32(code[off+1:])))
	case opNot:
		if code[0] == headerCompact {
			_, n := binary.Uvarint(code[off+1:])
			return AppendLeaves(code, off+1+n, dst)
		}
		return AppendLeaves(code, off+3, dst)
	case opAnd, opOr:
		n, p := children(code, off)
		for i := 0; i < n; i++ {
			child, next := nextChild(code, p)
			dst = AppendLeaves(code, child, dst)
			p = next
		}
	}
	return dst
}

// children returns the child count of the And/Or node at off and the
// offset of its first child's width field.
func children(code []byte, off int) (count, p int) {
	if code[0] == headerCompact {
		c, n := binary.Uvarint(code[off+1:])
		return int(c), off + 1 + n
	}
	return int(code[off+1]), off + 2
}

// nextChild reads the width field at p and returns the offset of the child
// it prefixes and the offset of the following sibling's width field.
func nextChild(code []byte, p int) (child, next int) {
	if code[0] == headerCompact {
		w, n := binary.Uvarint(code[p:])
		return p + n, p + n + int(w)
	}
	w := int(binary.LittleEndian.Uint16(code[p:]))
	return p + 2, p + 2 + w
}
