// Package subtree compiles subscription expressions into the paper's
// byte-level encoded subscription trees and evaluates them against a set of
// fulfilled predicates.
//
// Paper §3.3 fixes the encoding costs: one byte per Boolean operator, one
// byte for the child count of inner nodes, two bytes per child width and
// four bytes per predicate identifier. PaperEncoding reproduces that layout
// exactly. CompactEncoding is the "improved encoding" the paper defers to
// future work (varint identifiers and widths); the A2 ablation benchmark
// compares the two.
//
// Layout (PaperEncoding), after a one-byte header identifying the encoding:
//
//	leaf : opLeaf  id:u32le                        (5 bytes)
//	not  : opNot   width:u16le child               (3 bytes + child)
//	and  : opAnd   count:u8 { width:u16le child }* (2 bytes + children)
//	or   : opOr    count:u8 { width:u16le child }*
//
// Child widths let the evaluator jump over siblings once a conjunction
// fails or a disjunction succeeds (short-circuit evaluation).
package subtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

// Encoding selects the byte-level layout of a compiled subscription tree.
type Encoding uint8

// Supported encodings.
const (
	// PaperEncoding is the fixed-width layout of paper §3.3.
	PaperEncoding Encoding = iota + 1
	// CompactEncoding replaces fixed-width identifiers and widths with
	// unsigned varints (the paper's future-work "improved encoding").
	CompactEncoding
)

func (e Encoding) String() string {
	switch e {
	case PaperEncoding:
		return "paper"
	case CompactEncoding:
		return "compact"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// Header bytes, doubling as format version tags.
const (
	headerPaper   = 0xB1
	headerCompact = 0xC1
)

// Node opcodes.
const (
	opLeaf = 0x01
	opAnd  = 0x02
	opOr   = 0x03
	opNot  = 0x04
)

// Compilation errors.
var (
	ErrTooManyChildren = errors.New("subtree: node exceeds 255 children")
	ErrChildTooLarge   = errors.New("subtree: child exceeds 64 KiB encoding limit")
	ErrEmptyNode       = errors.New("subtree: operator node without children")
	ErrBadCode         = errors.New("subtree: malformed encoded tree")
)

// Options configures compilation.
type Options struct {
	// Encoding selects the layout; zero value means PaperEncoding.
	Encoding Encoding
	// Reorder sorts the children of every inner node cheapest-first
	// (ascending encoded size), so short-circuit evaluation settles on leaf
	// children before descending into subtrees. This is the paper's
	// "reordering subscription trees" future-work optimisation (§3.2),
	// measured by the A1 ablation.
	Reorder bool
}

// Compiled is an encoded subscription tree plus registration metadata.
type Compiled struct {
	// Code is the encoded tree, starting with the header byte. It is the
	// loc(s) target of the paper's subscription location table.
	Code []byte
	// PredIDs lists the distinct predicate IDs referenced by the tree; the
	// engine feeds them into the predicate-subscription association table.
	PredIDs []predicate.ID
	// ZeroSat reports whether the expression is satisfiable with zero
	// fulfilled predicates (e.g. `not a = 1`). Such subscriptions can match
	// events that fulfil none of their predicates, so a candidate-driven
	// matcher must evaluate them on every event.
	ZeroSat bool
}

// MemBytes estimates the resident size of the compiled subscription
// (experiment M1).
func (c Compiled) MemBytes() int {
	const sliceOverhead = 24
	return sliceOverhead + len(c.Code) + sliceOverhead + 4*len(c.PredIDs)
}

// Compile encodes the expression, interning every distinct predicate exactly
// once through intern (typically predicate.Registry.Intern bound to the
// engine's registry). It is Prepare followed by Encode, so intern is not
// called when compilation fails.
func Compile(e boolexpr.Expr, intern func(predicate.P) predicate.ID, opts Options) (Compiled, error) {
	t, err := Prepare(e, opts)
	if err != nil {
		return Compiled{}, err
	}
	return t.Encode(intern), nil
}

// Tree is an expression checked against its encoding's limits, with its
// distinct predicates found. Prepare builds it without interning anything,
// so a caller can prepare outside the lock that guards its registry and
// take the lock only to Encode.
type Tree struct {
	expr    boolexpr.Expr
	opts    Options
	preds   []leafPred // distinct predicates, in first-occurrence order
	leaves  []int32    // per leaf, depth-first in author order: its index in preds
	zeroSat bool
}

// leafPred is a distinct predicate of a Tree with its registry identity.
type leafPred struct {
	p predicate.P
	k predicate.Key
}

// Prepare validates e for the encoding opts selects and lists its distinct
// predicates. Two leaves are one predicate when a predicate.Registry would
// intern them to one ID (equal predicate.Key), so a compiled tree never
// lists an ID twice. The search is linear in the predicates found so far:
// trees are small (sublang caps a subscription at MaxPredicates leaves).
func Prepare(e boolexpr.Expr, opts Options) (Tree, error) {
	if opts.Encoding == 0 {
		opts.Encoding = PaperEncoding
	}
	if opts.Encoding != PaperEncoding && opts.Encoding != CompactEncoding {
		return Tree{}, fmt.Errorf("subtree: unknown encoding %d", opts.Encoding)
	}
	n := 0
	boolexpr.Walk(e, func(x boolexpr.Expr) bool {
		if _, ok := x.(boolexpr.Leaf); ok {
			n++
		}
		return true
	})
	t := Tree{expr: e, opts: opts, preds: make([]leafPred, 0, n), leaves: make([]int32, 0, n)}
	if _, err := t.walk(e); err != nil {
		return Tree{}, err
	}
	t.zeroSat = boolexpr.ZeroSatisfiable(e)
	return t, nil
}

// walk records e's leaves and returns e's size in the paper's layout, which
// does not depend on predicate IDs; that layout's limits are checked here,
// so Encode cannot fail.
func (t *Tree) walk(e boolexpr.Expr) (int, error) {
	switch x := e.(type) {
	case boolexpr.Leaf:
		t.leaves = append(t.leaves, t.distinct(x.Pred))
		return 5, nil
	case boolexpr.Not:
		w, err := t.walk(x.X)
		if err != nil {
			return 0, err
		}
		if t.opts.Encoding == PaperEncoding && w > 0xFFFF {
			return 0, ErrChildTooLarge
		}
		return 3 + w, nil
	case boolexpr.And:
		return t.walkNary(x.Xs)
	case boolexpr.Or:
		return t.walkNary(x.Xs)
	default:
		return 0, fmt.Errorf("subtree: unknown expression node %T", e)
	}
}

func (t *Tree) walkNary(xs []boolexpr.Expr) (int, error) {
	paper := t.opts.Encoding == PaperEncoding
	if len(xs) == 0 {
		return 0, ErrEmptyNode
	}
	if paper && len(xs) > 255 {
		return 0, ErrTooManyChildren
	}
	size := 2
	for _, x := range xs {
		w, err := t.walk(x)
		if err != nil {
			return 0, err
		}
		if paper && w > 0xFFFF {
			return 0, ErrChildTooLarge
		}
		size += 2 + w
	}
	return size, nil
}

// distinct returns the index in t.preds of p's registry identity, adding it
// on first sight.
func (t *Tree) distinct(p predicate.P) int32 {
	k := p.Key()
	for i := range t.preds {
		if t.preds[i].k == k {
			return int32(i)
		}
	}
	t.preds = append(t.preds, leafPred{p: p, k: k})
	return int32(len(t.preds) - 1)
}

// Encode interns each distinct predicate once, in first-occurrence order,
// and encodes the tree into a Code of exactly its size.
func (t *Tree) Encode(intern func(predicate.P) predicate.ID) Compiled {
	ids := make([]predicate.ID, len(t.preds))
	for i := range t.preds {
		ids[i] = intern(t.preds[i].p)
	}
	enc := encoders.Get().(*encoder)
	enc.ids, enc.leaves = ids, t.leaves
	enc.compact, enc.reorder = t.opts.Encoding == CompactEncoding, t.opts.Reorder
	if enc.compact {
		enc.buf = append(enc.buf[:0], headerCompact)
	} else {
		enc.buf = append(enc.buf[:0], headerPaper)
	}
	enc.node(t.expr)
	code := make([]byte, len(enc.buf))
	copy(code, enc.buf)
	enc.ids, enc.leaves = nil, nil
	encoders.Put(enc)
	slices.Sort(ids)
	return Compiled{Code: code, PredIDs: ids, ZeroSat: t.zeroSat}
}

// encoders recycles the encoding scratch, so an Encode allocates only the
// Code and PredIDs it returns.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder writes a tree in one pass into one buffer.
type encoder struct {
	buf     []byte
	ids     []predicate.ID // per distinct predicate
	leaves  []int32        // the leaves not yet written: their indices in ids
	compact bool
	reorder bool
	bounds  []int  // child boundaries of the And/Or nodes being written
	order   []int  // a node's children, cheapest first
	tmp     []byte // a node's children while they are reordered
}

// node appends e without the format header.
func (c *encoder) node(e boolexpr.Expr) {
	switch x := e.(type) {
	case boolexpr.Leaf:
		id := uint64(c.ids[c.leaves[0]])
		c.leaves = c.leaves[1:]
		c.buf = append(c.buf, opLeaf)
		if c.compact {
			c.buf = binary.AppendUvarint(c.buf, id)
		} else {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(id))
		}
	case boolexpr.Not:
		c.buf = append(c.buf, opNot)
		c.child(x.X)
	case boolexpr.And:
		c.nary(opAnd, x.Xs)
	case boolexpr.Or:
		c.nary(opOr, x.Xs)
	}
}

// child appends x behind its width: a u16 reserved before x and patched
// after it in the paper layout; in the compact one a varint, for which the
// encoded x is moved up once its width is known.
func (c *encoder) child(x boolexpr.Expr) {
	at := len(c.buf)
	if !c.compact {
		c.buf = append(c.buf, 0, 0)
		c.node(x)
		binary.LittleEndian.PutUint16(c.buf[at:], uint16(len(c.buf)-at-2))
		return
	}
	c.node(x)
	w := len(c.buf) - at
	var width [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(width[:], uint64(w))
	c.buf = append(c.buf, width[:n]...)
	copy(c.buf[at+n:], c.buf[at:at+w])
	copy(c.buf[at:], width[:n])
}

func (c *encoder) nary(op byte, xs []boolexpr.Expr) {
	c.buf = append(c.buf, op)
	if c.compact {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(xs)))
	} else {
		c.buf = append(c.buf, byte(len(xs)))
	}
	base := len(c.bounds)
	for _, x := range xs {
		c.bounds = append(c.bounds, len(c.buf))
		c.child(x)
	}
	c.bounds = append(c.bounds, len(c.buf))
	if c.reorder {
		c.cheapestFirst(c.bounds[base:])
	}
	c.bounds = c.bounds[:base]
}

// cheapestFirst stably sorts the width-prefixed children between bounds by
// encoded size. A width field never shrinks as the width grows, so sorting
// by prefixed size sorts by child size.
func (c *encoder) cheapestFirst(bounds []int) {
	n := len(bounds) - 1
	size := func(i int) int { return bounds[i+1] - bounds[i] }
	c.order = c.order[:0]
	for i := 0; i < n; i++ {
		c.order = append(c.order, i)
	}
	slices.SortStableFunc(c.order, func(a, b int) int { return size(a) - size(b) })
	start := bounds[0]
	c.tmp = append(c.tmp[:0], c.buf[start:bounds[n]]...)
	for _, i := range c.order {
		start += copy(c.buf[start:], c.tmp[bounds[i]-bounds[0]:bounds[i+1]-bounds[0]])
	}
}
