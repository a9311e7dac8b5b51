// Package index implements predicate matching — the first filtering phase
// (paper §3.2, Fig. 2): given an event, determine the identifiers of all
// predicates it fulfils.
//
// Per attribute, predicates are organised by operator class exactly as the
// paper prescribes: point predicates (=) use hash tables; range predicates
// (<, <=, >, >=) use B+ trees over their constants. Additional operator
// classes are indexed with appropriate structures: prefix/suffix predicates
// by hash lookup over the event value's prefixes/suffixes, exists and !=
// predicates by per-attribute lists (a != predicate matches every comparable
// value except one, so a list is the natural representation), and substring
// (contains) predicates by a per-attribute scan list.
//
// Every predicate is decided exactly as predicate.P.Eval decides it. The
// float-keyed structures order a numeric operand correctly against every
// event value only when it is a number below 2^53 in magnitude: NaN
// compares equal to every number under value.Compare, and from 2^53 on an
// Int and its float image part. Such operands, and the operand kinds no
// structure serves (ranges over booleans, substring tests of non-strings,
// invalid values), sit on a short per-attribute residual list checked with
// EvalValue. A NaN event value takes its own branch, which follows
// value.Compare: every =, <= and >= holds and every !=, < and > fails.
//
// The index is split into two disjoint partitions, and every predicate is
// stored in exactly one. The access partition holds the predicates some
// subscription tree is listed under; the other holds the rest. Add puts a
// predicate in the other partition and SetAccess moves it between them.
// Match probes both, so it finds every fulfilled predicate; MatchAccess
// probes the access partition only, which is the non-canonical engine's
// phase one (internal/core). An index nobody calls SetAccess on — the
// counting engines' — is one structure.
//
// Both the non-canonical engine and the counting baselines share this phase:
// "the first phases use the same indexes in the same way in both
// approaches" (paper §4).
package index

import (
	"math"

	"noncanon/internal/event"
	"noncanon/internal/intern"
	"noncanon/internal/predicate"
	"noncanon/internal/value"

	"noncanon/internal/index/btree"
)

// The two partitions, as indexes into attrPair.
const (
	rest = iota
	access
)

// rangeEntry is a B+ tree payload: the predicate and whether its bound is
// inclusive (Le/Ge as opposed to Lt/Gt).
type rangeEntry struct {
	id   predicate.ID
	incl bool
}

// neEntry records a != predicate and the operand it excludes.
type neEntry struct {
	id  predicate.ID
	key value.Key
}

// residualEntry is a predicate no operator structure decides exactly.
type residualEntry struct {
	id predicate.ID
	p  predicate.P
}

// attrIndex holds all predicate structures for one attribute in one
// partition.
type attrIndex struct {
	n int // predicates held

	// eq: point predicates by operand (hash index, Fig. 2).
	eq map[value.Key][]predicate.ID

	// Numeric range predicates (B+ tree index, Fig. 2). Keys are the
	// predicate constants as float64.
	//
	// upperNum holds "attr < c" / "attr <= c": an event value v fulfils
	// entries with c > v, and c == v when inclusive.
	// lowerNum holds "attr > c" / "attr >= c": v fulfils entries with
	// c < v, and c == v when inclusive.
	upperNum *btree.Tree[float64, rangeEntry]
	lowerNum *btree.Tree[float64, rangeEntry]

	// String range predicates, same organisation with string keys.
	upperStr *btree.Tree[string, rangeEntry]
	lowerStr *btree.Tree[string, rangeEntry]

	// ne: inequality predicates. All match a comparable event value except
	// those whose operand equals it.
	neNum  []neEntry
	neStr  []neEntry
	neBool []neEntry

	// prefix/suffix: hash on the operand; matched by probing every
	// prefix/suffix of the event value.
	prefix map[string][]predicate.ID
	suffix map[string][]predicate.ID

	// contains: scan list (no sublinear index for substring predicates).
	contains []containsEntry

	// exists: predicates fulfilled by attribute presence.
	exists []predicate.ID

	// residual: predicates checked one by one with EvalValue (see the
	// package comment).
	residual []residualEntry
}

type containsEntry struct {
	id  predicate.ID
	sub string
}

func newAttrIndex() *attrIndex {
	return &attrIndex{
		eq:       make(map[value.Key][]predicate.ID, 4),
		upperNum: btree.New[float64, rangeEntry](btree.DefaultOrder),
		lowerNum: btree.New[float64, rangeEntry](btree.DefaultOrder),
		upperStr: btree.New[string, rangeEntry](btree.DefaultOrder),
		lowerStr: btree.New[string, rangeEntry](btree.DefaultOrder),
		prefix:   make(map[string][]predicate.ID),
		suffix:   make(map[string][]predicate.ID),
	}
}

// attrPair holds one attribute's structures in each partition. A
// partition's entry stays nil until it first holds a predicate over the
// attribute, and is kept once emptied: a predicate moving into the access
// partition would otherwise rebuild the attribute's other structures every
// time it was the last one there.
type attrPair [2]*attrIndex

// Index is the phase-one structure set across all attributes. Attributes
// are keyed by their interned symbol: Add interns (subscription vocabulary
// is local and bounded), and Match dispatches on the symbols already
// carried by the event's attributes, so the per-attribute probe hashes a
// u32 instead of a string.
type Index struct {
	bySym map[intern.Sym]*attrPair
	n     int // live predicate entries
}

// New returns an empty predicate index.
func New() *Index {
	return &Index{bySym: make(map[intern.Sym]*attrPair, 64)}
}

// NumPredicates returns the number of indexed predicate entries.
func (ix *Index) NumPredicates() int { return ix.n }

// Add indexes predicate p under id, outside the access partition. Each
// (id, p) pair must be added at most once (the predicate registry interns
// predicates, so engines add a predicate only when its refcount rises from
// zero).
func (ix *Index) Add(id predicate.ID, p predicate.P) {
	sym := p.Sym
	if sym == intern.None {
		sym = intern.Of(p.Attr) // registering a subscription: local vocabulary
	}
	ix.attrIn(sym, rest).add(id, p)
	ix.n++
}

// Remove unindexes the (id, p) pair added by Add, from whichever partition
// holds it. It reports whether the entry was found.
func (ix *Index) Remove(id predicate.ID, p predicate.P) bool {
	_, pair := ix.lookup(p)
	if pair == nil {
		return false
	}
	for _, ai := range pair {
		if ai != nil && ai.remove(id, p) {
			ix.n--
			return true
		}
	}
	return false
}

// SetAccess moves the (id, p) pair added by Add into the access partition
// when on, and out of it otherwise. It reports whether the pair was found
// in the partition it leaves; if not, nothing changes.
func (ix *Index) SetAccess(id predicate.ID, p predicate.P, on bool) bool {
	from, to := rest, access
	if !on {
		from, to = access, rest
	}
	sym, pair := ix.lookup(p)
	if pair == nil || pair[from] == nil || !pair[from].remove(id, p) {
		return false
	}
	ix.attrIn(sym, to).add(id, p)
	return true
}

// lookup returns the symbol of p's attribute and its structures, nil when
// no predicate over the attribute was ever added.
func (ix *Index) lookup(p predicate.P) (intern.Sym, *attrPair) {
	sym := p.Sym
	if sym == intern.None {
		// Lookup, not Of: removing a predicate never added must not
		// grow the symbol table.
		var ok bool
		if sym, ok = intern.Lookup(p.Attr); !ok {
			return sym, nil
		}
	}
	return sym, ix.bySym[sym]
}

// attrIn returns the structures of attribute sym in partition part,
// creating them on first use.
func (ix *Index) attrIn(sym intern.Sym, part int) *attrIndex {
	pair, ok := ix.bySym[sym]
	if !ok {
		pair = new(attrPair)
		ix.bySym[sym] = pair
	}
	if pair[part] == nil {
		pair[part] = newAttrIndex()
	}
	return pair[part]
}

// residual reports whether p belongs on its attribute's residual list
// rather than in an operator structure (see the package comment).
func residual(p predicate.P) bool {
	switch p.Op {
	case predicate.Exists:
		return false
	case predicate.Prefix, predicate.Suffix, predicate.Contains:
		return p.Operand.Kind() != value.String
	case predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge:
		switch p.Operand.Kind() {
		case value.String:
			return false
		case value.Bool:
			return p.Op != predicate.Eq && p.Op != predicate.Ne
		case value.Int, value.Float:
			f, _ := p.Operand.AsFloat()
			return f != f || math.Abs(f) >= 1<<53
		}
	}
	return true
}

func (ai *attrIndex) add(id predicate.ID, p predicate.P) {
	ai.n++
	if residual(p) {
		ai.residual = append(ai.residual, residualEntry{id: id, p: p})
		return
	}
	switch p.Op {
	case predicate.Eq:
		k := p.Operand.Key()
		ai.eq[k] = append(ai.eq[k], id)
	case predicate.Ne:
		e := neEntry{id: id, key: p.Operand.Key()}
		switch p.Operand.Kind() {
		case value.String:
			ai.neStr = append(ai.neStr, e)
		case value.Bool:
			ai.neBool = append(ai.neBool, e)
		default:
			ai.neNum = append(ai.neNum, e)
		}
	case predicate.Lt, predicate.Le:
		e := rangeEntry{id: id, incl: p.Op == predicate.Le}
		if f, ok := p.Operand.AsFloat(); ok {
			ai.upperNum.Insert(f, e)
		} else {
			ai.upperStr.Insert(p.Operand.Str(), e)
		}
	case predicate.Gt, predicate.Ge:
		e := rangeEntry{id: id, incl: p.Op == predicate.Ge}
		if f, ok := p.Operand.AsFloat(); ok {
			ai.lowerNum.Insert(f, e)
		} else {
			ai.lowerStr.Insert(p.Operand.Str(), e)
		}
	case predicate.Prefix:
		s := p.Operand.Str()
		ai.prefix[s] = append(ai.prefix[s], id)
	case predicate.Suffix:
		s := p.Operand.Str()
		ai.suffix[s] = append(ai.suffix[s], id)
	case predicate.Contains:
		ai.contains = append(ai.contains, containsEntry{id: id, sub: p.Operand.Str()})
	case predicate.Exists:
		ai.exists = append(ai.exists, id)
	}
}

func (ai *attrIndex) remove(id predicate.ID, p predicate.P) (removed bool) {
	defer func() {
		if removed {
			ai.n--
		}
	}()
	if residual(p) {
		for i, e := range ai.residual {
			if e.id == id {
				ai.residual = append(ai.residual[:i:i], ai.residual[i+1:]...)
				return true
			}
		}
		return false
	}
	switch p.Op {
	case predicate.Eq:
		k := p.Operand.Key()
		ai.eq[k], removed = removeID(ai.eq[k], id)
		if len(ai.eq[k]) == 0 {
			delete(ai.eq, k)
		}
	case predicate.Ne:
		switch p.Operand.Kind() {
		case value.String:
			ai.neStr, removed = removeNe(ai.neStr, id)
		case value.Bool:
			ai.neBool, removed = removeNe(ai.neBool, id)
		default:
			ai.neNum, removed = removeNe(ai.neNum, id)
		}
	case predicate.Lt, predicate.Le:
		e := rangeEntry{id: id, incl: p.Op == predicate.Le}
		if f, ok := p.Operand.AsFloat(); ok {
			removed = ai.upperNum.Delete(f, e)
		} else {
			removed = ai.upperStr.Delete(p.Operand.Str(), e)
		}
	case predicate.Gt, predicate.Ge:
		e := rangeEntry{id: id, incl: p.Op == predicate.Ge}
		if f, ok := p.Operand.AsFloat(); ok {
			removed = ai.lowerNum.Delete(f, e)
		} else {
			removed = ai.lowerStr.Delete(p.Operand.Str(), e)
		}
	case predicate.Prefix:
		s := p.Operand.Str()
		ai.prefix[s], removed = removeID(ai.prefix[s], id)
		if len(ai.prefix[s]) == 0 {
			delete(ai.prefix, s)
		}
	case predicate.Suffix:
		s := p.Operand.Str()
		ai.suffix[s], removed = removeID(ai.suffix[s], id)
		if len(ai.suffix[s]) == 0 {
			delete(ai.suffix, s)
		}
	case predicate.Contains:
		for i, e := range ai.contains {
			if e.id == id {
				ai.contains = append(ai.contains[:i:i], ai.contains[i+1:]...)
				removed = true
				break
			}
		}
	case predicate.Exists:
		ai.exists, removed = removeID(ai.exists, id)
	}
	return removed
}

func removeID(s []predicate.ID, id predicate.ID) ([]predicate.ID, bool) {
	for i, x := range s {
		if x == id {
			return append(s[:i:i], s[i+1:]...), true
		}
	}
	return s, false
}

func removeNe(s []neEntry, id predicate.ID) ([]neEntry, bool) {
	for i, e := range s {
		if e.id == id {
			return append(s[:i:i], s[i+1:]...), true
		}
	}
	return s, false
}

// Match appends the IDs of every predicate fulfilled by e, in both
// partitions, to out and returns the extended slice: exactly the
// predicates p for which p.Eval(e) holds. Each appears once (the registry
// interns predicates, and each lives in exactly one structure). out is
// caller-owned: growing it is the caller's capacity contract.
//
//nclint:hotpath
func (ix *Index) Match(e event.Event, out []predicate.ID) []predicate.ID {
	return ix.match(e, rest, out)
}

// MatchAccess is Match over the access partition only.
//
//nclint:hotpath
func (ix *Index) MatchAccess(e event.Event, out []predicate.ID) []predicate.ID {
	return ix.match(e, access, out)
}

// match probes partitions from through access.
//
//nclint:hotpath
func (ix *Index) match(e event.Event, from int, out []predicate.ID) []predicate.ID {
	for _, a := range e.All() {
		sym := a.Sym
		if sym == intern.None {
			// The event was decoded before this name was ever interned
			// (or built by hand); resolve it now so late subscriptions on
			// early-decoded events still match.
			var ok bool
			if sym, ok = intern.Lookup(a.Name); !ok {
				continue // no subscription ever mentioned this attribute
			}
		}
		if pair, ok := ix.bySym[sym]; ok {
			for _, ai := range pair[from:] {
				if ai != nil {
					out = ai.match(a.Val, out)
				}
			}
		}
	}
	return out
}

//nclint:hotpath
func (ai *attrIndex) match(v value.Value, out []predicate.ID) []predicate.ID {
	// Point predicates: one hash probe.
	out = append(out, ai.eq[v.Key()]...)

	// Range predicates.
	if f, isNum := v.AsFloat(); isNum && f != f {
		out = ai.matchNaN(out)
	} else if isNum {
		// upper bounds: need c > f, or c == f when inclusive.
		ai.upperNum.ScanFrom(f, func(c float64, es []rangeEntry) bool {
			strict := c > f
			for _, e := range es {
				if strict || e.incl {
					out = append(out, e.id)
				}
			}
			return true
		})
		// lower bounds: need c < f, or c == f when inclusive.
		ai.lowerNum.ScanUpTo(f, func(_ float64, es []rangeEntry) bool {
			for _, e := range es {
				out = append(out, e.id)
			}
			return true
		})
		for _, e := range ai.lowerNum.Get(f) {
			if e.incl {
				out = append(out, e.id)
			}
		}
		// Inequality: all numeric != whose operand differs.
		key := v.Key()
		for _, e := range ai.neNum {
			if e.key != key {
				out = append(out, e.id)
			}
		}
	} else if v.Kind() == value.String {
		s := v.Str()
		ai.upperStr.ScanFrom(s, func(c string, es []rangeEntry) bool {
			strict := c > s
			for _, e := range es {
				if strict || e.incl {
					out = append(out, e.id)
				}
			}
			return true
		})
		ai.lowerStr.ScanUpTo(s, func(_ string, es []rangeEntry) bool {
			for _, e := range es {
				out = append(out, e.id)
			}
			return true
		})
		for _, e := range ai.lowerStr.Get(s) {
			if e.incl {
				out = append(out, e.id)
			}
		}
		key := v.Key()
		for _, e := range ai.neStr {
			if e.key != key {
				out = append(out, e.id)
			}
		}
		// prefix: probe every prefix of s (including empty and full).
		if len(ai.prefix) > 0 {
			for l := 0; l <= len(s); l++ {
				out = append(out, ai.prefix[s[:l]]...)
			}
		}
		if len(ai.suffix) > 0 {
			for l := 0; l <= len(s); l++ {
				out = append(out, ai.suffix[s[len(s)-l:]]...)
			}
		}
		for _, e := range ai.contains {
			if containsSub(s, e.sub) {
				out = append(out, e.id)
			}
		}
	} else if v.Kind() == value.Bool {
		key := v.Key()
		for _, e := range ai.neBool {
			if e.key != key {
				out = append(out, e.id)
			}
		}
	}

	for _, e := range ai.residual {
		if e.p.EvalValue(v) {
			out = append(out, e.id)
		}
	}

	// Presence predicates.
	out = append(out, ai.exists...)
	return out
}

// matchNaN appends the numeric predicates in the operator structures that
// a NaN event value fulfils. value.Compare orders NaN equal to every
// number, so every = , <= and >= holds and every !=, < and > fails. The
// structures hold no NaN operand, so the point probe found nothing.
func (ai *attrIndex) matchNaN(out []predicate.ID) []predicate.ID {
	for k, ids := range ai.eq {
		if k.IsNumeric() {
			out = append(out, ids...)
		}
	}
	inclusive := func(_ float64, es []rangeEntry) bool {
		for _, e := range es {
			if e.incl {
				out = append(out, e.id)
			}
		}
		return true
	}
	ai.upperNum.Scan(inclusive)
	ai.lowerNum.Scan(inclusive)
	return out
}

func containsSub(s, sub string) bool {
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

// MemBytes estimates resident bytes of the index structures that hold
// predicates, in both partitions (experiment M1).
func (ix *Index) MemBytes() int {
	const (
		mapEntryOverhead = 48
		idSize           = 4
		neEntrySize      = 40
		rangeEntrySize   = 8
	)
	total := 0
	for sym, pair := range ix.bySym {
		total += mapEntryOverhead + len(intern.Name(sym))
		for _, ai := range pair {
			if ai == nil || ai.n == 0 {
				continue
			}
			for _, ids := range ai.eq {
				total += mapEntryOverhead + len(ids)*idSize
			}
			total += ai.upperNum.MemBytes(8, rangeEntrySize)
			total += ai.lowerNum.MemBytes(8, rangeEntrySize)
			total += ai.upperStr.MemBytes(16, rangeEntrySize)
			total += ai.lowerStr.MemBytes(16, rangeEntrySize)
			total += (len(ai.neNum) + len(ai.neStr) + len(ai.neBool)) * neEntrySize
			for s, ids := range ai.prefix {
				total += mapEntryOverhead + len(s) + len(ids)*idSize
			}
			for s, ids := range ai.suffix {
				total += mapEntryOverhead + len(s) + len(ids)*idSize
			}
			for _, ce := range ai.contains {
				total += 24 + len(ce.sub)
			}
			total += len(ai.exists) * idSize
			for _, e := range ai.residual {
				total += idSize + e.p.MemBytes()
			}
		}
	}
	return total
}
