package subtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/predicate"
)

// referenceCompile is the recursive encoder Compile replaced: each node is
// encoded into a byte slice of its own and copied into its parent's, and
// leaves are deduplicated on their printed form. Compile must produce the
// same Code.
func referenceCompile(e boolexpr.Expr, intern func(predicate.P) predicate.ID, opts Options) (Compiled, error) {
	if opts.Encoding == 0 {
		opts.Encoding = PaperEncoding
	}
	c := &refCompiler{
		intern: intern,
		ids:    make(map[string]predicate.ID),
		opts:   opts,
	}
	var buf []byte
	switch opts.Encoding {
	case PaperEncoding:
		buf = append(buf, headerPaper)
	case CompactEncoding:
		buf = append(buf, headerCompact)
	default:
		return Compiled{}, fmt.Errorf("subtree: unknown encoding %d", opts.Encoding)
	}
	body, err := c.encode(e)
	if err != nil {
		return Compiled{}, err
	}
	buf = append(buf, body...)

	predIDs := make([]predicate.ID, 0, len(c.ids))
	for _, id := range c.ids {
		predIDs = append(predIDs, id)
	}
	sort.Slice(predIDs, func(i, j int) bool { return predIDs[i] < predIDs[j] })
	return Compiled{
		Code:    buf,
		PredIDs: predIDs,
		ZeroSat: boolexpr.ZeroSatisfiable(e),
	}, nil
}

type refCompiler struct {
	intern func(predicate.P) predicate.ID
	ids    map[string]predicate.ID // per-subscription predicate dedup
	opts   Options
}

func (c *refCompiler) leafID(p predicate.P) predicate.ID {
	k := p.String()
	if id, ok := c.ids[k]; ok {
		return id
	}
	id := c.intern(p)
	c.ids[k] = id
	return id
}

// encode serialises one node (without the format header).
func (c *refCompiler) encode(e boolexpr.Expr) ([]byte, error) {
	switch t := e.(type) {
	case boolexpr.Leaf:
		id := c.leafID(t.Pred)
		if c.opts.Encoding == CompactEncoding {
			return binary.AppendUvarint([]byte{opLeaf}, uint64(id)), nil
		}
		return binary.LittleEndian.AppendUint32([]byte{opLeaf}, uint32(id)), nil
	case boolexpr.Not:
		child, err := c.encode(t.X)
		if err != nil {
			return nil, err
		}
		return c.wrapUnary(opNot, child)
	case boolexpr.And:
		return c.encodeNary(opAnd, t.Xs)
	case boolexpr.Or:
		return c.encodeNary(opOr, t.Xs)
	default:
		return nil, fmt.Errorf("subtree: unknown expression node %T", e)
	}
}

func (c *refCompiler) wrapUnary(op byte, child []byte) ([]byte, error) {
	if c.opts.Encoding == CompactEncoding {
		out := binary.AppendUvarint([]byte{op}, uint64(len(child)))
		return append(out, child...), nil
	}
	if len(child) > 0xFFFF {
		return nil, ErrChildTooLarge
	}
	out := binary.LittleEndian.AppendUint16([]byte{op}, uint16(len(child)))
	return append(out, child...), nil
}

func (c *refCompiler) encodeNary(op byte, xs []boolexpr.Expr) ([]byte, error) {
	if len(xs) == 0 {
		return nil, ErrEmptyNode
	}
	if c.opts.Encoding == PaperEncoding && len(xs) > 255 {
		return nil, ErrTooManyChildren
	}
	children := make([][]byte, len(xs))
	for i, x := range xs {
		b, err := c.encode(x)
		if err != nil {
			return nil, err
		}
		children[i] = b
	}
	if c.opts.Reorder {
		// Cheapest-first, stable so equal-size children keep author order.
		sort.SliceStable(children, func(i, j int) bool {
			return len(children[i]) < len(children[j])
		})
	}
	var out []byte
	if c.opts.Encoding == CompactEncoding {
		out = binary.AppendUvarint([]byte{op}, uint64(len(children)))
		for _, ch := range children {
			out = binary.AppendUvarint(out, uint64(len(ch)))
			out = append(out, ch...)
		}
		return out, nil
	}
	out = []byte{op, byte(len(children))}
	for _, ch := range children {
		if len(ch) > 0xFFFF {
			return nil, ErrChildTooLarge
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(ch)))
		out = append(out, ch...)
	}
	return out, nil
}

// TestCompileMatchesReference: over seeded random trees — wide and deep
// ones, with many repeated predicates, and IDs past the one-byte varint
// range so compact widths and leaves vary in size — Compile writes the
// reference encoder's bytes in both encodings, with Reorder off and on,
// and fails where the reference fails, with the same error.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	configs := []boolexpr.RandomConfig{
		{MaxDepth: 4, MaxFanout: 4, AllowNot: true},
		{MaxDepth: 5, MaxFanout: 3, AllowNot: true, Attrs: []string{"a", "b"}, Domain: 3},
		{MaxDepth: 2, MaxFanout: 24, Domain: 1000},
	}
	const trees = 20000
	for i := 0; i < trees; i++ {
		e := boolexpr.RandomExpr(rng, configs[i%len(configs)])
		base := predicate.ID(rng.Intn(1 << 22))
		for _, enc := range []Encoding{PaperEncoding, CompactEncoding} {
			for _, reorder := range []bool{false, true} {
				opts := Options{Encoding: enc, Reorder: reorder}
				got, err := Compile(e, (&seqInterner{base: base}).intern, opts)
				want, werr := referenceCompile(e, (&seqInterner{base: base}).intern, opts)
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("tree %d, %s: error %v, reference's %v", i, enc, err, werr)
				}
				if err != nil {
					continue
				}
				if string(got.Code) != string(want.Code) || got.ZeroSat != want.ZeroSat {
					t.Fatalf("tree %d, %s, reorder %v: %s\ncode %x\nwant %x", i, enc, reorder, e, got.Code, want.Code)
				}
				if !slices.Equal(got.PredIDs, slices.Compact(want.PredIDs)) {
					t.Fatalf("tree %d: PredIDs %v, reference's distinct %v", i, got.PredIDs, want.PredIDs)
				}
			}
		}
	}
}

// seqInterner hands out IDs from base+1 on in first-call order, one per
// distinct predicate.Key, as a fresh predicate.Registry would.
type seqInterner struct {
	base predicate.ID
	keys []predicate.Key
}

func (s *seqInterner) intern(p predicate.P) predicate.ID {
	k := p.Key()
	i := slices.Index(s.keys, k)
	if i < 0 {
		i = len(s.keys)
		s.keys = append(s.keys, k)
	}
	return s.base + predicate.ID(i+1)
}
