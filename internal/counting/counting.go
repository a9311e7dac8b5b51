// Package counting implements the paper's two baselines: the classic
// counting algorithm and its candidate-driven variant (paper §3.3).
//
// Both accept only conjunctive subscriptions, so arbitrary Boolean
// subscriptions are transformed into DNF at registration and every disjunct
// is registered as a separate conjunctive subscription — the canonical
// treatment the paper argues against (§2). The data structures follow the
// memory-friendly list/array implementation of Ashayer et al. referenced by
// the paper: a subscription-predicate count vector and a hit vector with one
// byte per (transformed) subscription, plus the predicate-subscription
// association table.
//
// Subscription matching:
//
//   - classic: increment hit counters for every subscription of every
//     fulfilled predicate, then scan ALL registered conjunctive
//     subscriptions comparing hits against predicate counts. The scan is
//     linear in the transformed subscription count — the source of the
//     linear curves in Fig. 3.
//   - variant: record each conjunctive subscription on first touch while
//     incrementing, then compare only those candidates. Matching work
//     scales with the fulfilled-predicate count instead of the total
//     subscription count.
//
// Matches of conjunctive units are deduplicated back to their original
// subscription before being returned.
package counting

import (
	"fmt"
	"sync"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
)

// Algorithm selects the subscription-matching strategy.
type Algorithm uint8

// The two baseline algorithms.
const (
	// Classic is the counting algorithm with a full scan over all
	// transformed subscriptions per event.
	Classic Algorithm = iota + 1
	// Variant compares only candidate subscriptions (paper §3.3).
	Variant
)

func (a Algorithm) String() string {
	switch a {
	case Classic:
		return "counting"
	case Variant:
		return "counting-variant"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

// MaxConjPredicates is the paper's bound: "we assume a maximum of 256
// predicates per subscription and use 1 byte per entry in hit and
// subscription-predicate count vector". With one byte per counter the
// largest representable predicate count is 255.
const MaxConjPredicates = 255

// DefaultMaxDisjuncts bounds the DNF blow-up accepted per subscription.
const DefaultMaxDisjuncts = 1 << 16

// Options configures the engine.
type Options struct {
	// Algorithm selects Classic or Variant (default Classic).
	Algorithm Algorithm
	// MaxDisjuncts bounds the DNF size per subscription
	// (default DefaultMaxDisjuncts).
	MaxDisjuncts int
	// ComplementNegations rewrites negated literals into complemented
	// operators (¬(a<5) → a≥5) instead of rejecting them. This is the
	// strong-negation semantics; see boolexpr.ComplementLiterals for the
	// caveat on absent attributes.
	ComplementNegations bool
	// SupportUnsubscribe retains per-unit predicate lists so that
	// Unsubscribe works. The paper's memory-friendly configuration turns
	// this off (§3.3) — doing so makes Unsubscribe return
	// matcher.ErrUnsubscribeUnsupported and is visible in MemBytes.
	SupportUnsubscribe bool
}

// Engine implements both counting baselines.
type Engine struct {
	mu   sync.Mutex
	reg  *predicate.Registry
	idx  *index.Index
	opts Options

	// Per-conjunctive-unit vectors ("1 byte per entry").
	counts    []uint8 // subscription-predicate count vector
	hits      []uint8 // hit vector
	orig      []matcher.SubID
	unitPreds [][]predicate.ID // only with SupportUnsubscribe
	liveUnit  []bool

	freeUnits []uint32
	liveUnits int

	// assoc is the predicate-subscription association table over units,
	// dense-indexed by predicate ID (array storage, following the paper's
	// memory-friendly implementation of the baseline).
	assoc [][]uint32 // assoc[pid-1] = units containing pid

	// Original subscriptions.
	subs    map[matcher.SubID][]uint32 // original → its units
	nextSub matcher.SubID

	// Scratch.
	origMark map[matcher.SubID]uint64
	epoch    uint64
	candBuf  []uint32
	predBuf  []predicate.ID
}

var _ matcher.Matcher = (*Engine)(nil)

// New builds a counting engine over the shared registry and index.
func New(reg *predicate.Registry, idx *index.Index, opts Options) *Engine {
	if opts.Algorithm == 0 {
		opts.Algorithm = Classic
	}
	if opts.MaxDisjuncts == 0 {
		opts.MaxDisjuncts = DefaultMaxDisjuncts
	}
	return &Engine{
		reg:      reg,
		idx:      idx,
		opts:     opts,
		subs:     make(map[matcher.SubID][]uint32, 1024),
		origMark: make(map[matcher.SubID]uint64, 1024),
	}
}

// Name implements matcher.Matcher.
func (e *Engine) Name() string { return e.opts.Algorithm.String() }

// Subscribe transforms the subscription into DNF and registers each
// disjunct as a conjunctive subscription.
func (e *Engine) Subscribe(expr boolexpr.Expr) (matcher.SubID, error) {
	if expr == nil {
		return 0, fmt.Errorf("counting: nil subscription expression")
	}
	dnf, err := boolexpr.ToDNF(expr, e.opts.MaxDisjuncts)
	if err != nil {
		return 0, fmt.Errorf("counting: canonicalise subscription: %w", err)
	}
	if !dnf.AllPositive() {
		if !e.opts.ComplementNegations {
			return 0, fmt.Errorf("counting: %w (enable ComplementNegations or use the non-canonical engine)",
				boolexpr.ErrNegativeLiteral)
		}
		if dnf, err = boolexpr.ComplementLiterals(dnf); err != nil {
			return 0, fmt.Errorf("counting: canonicalise subscription: %w", err)
		}
	}
	if len(dnf) == 0 {
		return 0, fmt.Errorf("counting: subscription is unsatisfiable after canonicalisation")
	}
	for _, conj := range dnf {
		if len(conj) > MaxConjPredicates {
			return 0, fmt.Errorf("counting: disjunct with %d predicates exceeds the %d-predicate counter limit",
				len(conj), MaxConjPredicates)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	e.nextSub++
	sid := e.nextSub
	units := make([]uint32, 0, len(dnf))
	for _, conj := range dnf {
		u := e.allocUnitLocked()
		e.counts[u] = uint8(len(conj))
		e.hits[u] = 0
		e.orig[u] = sid
		e.liveUnit[u] = true
		var keep []predicate.ID
		if e.opts.SupportUnsubscribe {
			keep = make([]predicate.ID, 0, len(conj))
		}
		for _, lit := range conj {
			pid := e.reg.Intern(lit.Pred)
			if e.reg.Refs(pid) == 1 {
				e.idx.Add(pid, lit.Pred)
			}
			ai := int(pid) - 1
			if ai >= len(e.assoc) {
				e.assoc = append(e.assoc, make([][]uint32, ai+1-len(e.assoc))...)
			}
			e.assoc[ai] = append(e.assoc[ai], u)
			if e.opts.SupportUnsubscribe {
				keep = append(keep, pid)
			}
		}
		if e.opts.SupportUnsubscribe {
			e.unitPreds[u] = keep
		}
		units = append(units, u)
	}
	e.subs[sid] = units
	e.liveUnits += len(units)
	return sid, nil
}

func (e *Engine) allocUnitLocked() uint32 {
	if n := len(e.freeUnits); n > 0 {
		u := e.freeUnits[n-1]
		e.freeUnits = e.freeUnits[:n-1]
		return u
	}
	e.counts = append(e.counts, 0)
	e.hits = append(e.hits, 0)
	e.orig = append(e.orig, 0)
	e.liveUnit = append(e.liveUnit, false)
	if e.opts.SupportUnsubscribe {
		e.unitPreds = append(e.unitPreds, nil)
	}
	return uint32(len(e.counts) - 1)
}

// Unsubscribe removes an original subscription and all its conjunctive
// units. Without SupportUnsubscribe the engine does not retain the
// per-unit predicate lists required to shrink the association table, and
// the paper notes this complication (§2.1, footnote 1): it returns
// matcher.ErrUnsubscribeUnsupported.
func (e *Engine) Unsubscribe(id matcher.SubID) error {
	if !e.opts.SupportUnsubscribe {
		return matcher.ErrUnsubscribeUnsupported
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	units, ok := e.subs[id]
	if !ok {
		return fmt.Errorf("%w: %d", matcher.ErrUnknownSubscription, id)
	}
	for _, u := range units {
		for _, pid := range e.unitPreds[u] {
			ai := int(pid) - 1
			e.assoc[ai] = removeUnit(e.assoc[ai], u)
			if len(e.assoc[ai]) == 0 {
				e.assoc[ai] = nil // release backing storage
			}
			p, err := e.reg.Get(pid)
			if err != nil {
				return fmt.Errorf("counting: unsubscribe %d: %w", id, err)
			}
			died, err := e.reg.Release(pid)
			if err != nil {
				return fmt.Errorf("counting: unsubscribe %d: %w", id, err)
			}
			if died {
				e.idx.Remove(pid, p)
			}
		}
		e.unitPreds[u] = nil
		e.liveUnit[u] = false
		e.counts[u] = 0
		e.hits[u] = 0
		e.orig[u] = 0
		e.freeUnits = append(e.freeUnits, u)
	}
	e.liveUnits -= len(units)
	delete(e.subs, id)
	return nil
}

func removeUnit(s []uint32, u uint32) []uint32 {
	for i, x := range s {
		if x == u {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Match runs both filtering phases.
func (e *Engine) Match(ev event.Event) []matcher.SubID {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.predBuf = e.idx.Match(ev, e.predBuf[:0])
	return e.matchPredicatesLocked(e.predBuf)
}

// MatchPredicates runs phase two only.
func (e *Engine) MatchPredicates(fulfilled []predicate.ID) []matcher.SubID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.matchPredicatesLocked(fulfilled)
}

// MatchPredicatesAlg runs phase two with an explicit algorithm choice,
// overriding the configured one. The benchmark harness uses it to time both
// counting strategies over a single registered engine (their registration
// state is identical; only subscription matching differs).
func (e *Engine) MatchPredicatesAlg(alg Algorithm, fulfilled []predicate.ID) []matcher.SubID {
	e.mu.Lock()
	defer e.mu.Unlock()
	if alg == Variant {
		return e.matchVariantLocked(fulfilled)
	}
	return e.matchClassicLocked(fulfilled)
}

// InstrumentedMatch counts phase-two work instead of matching — the
// counting-side twin of core.Engine.InstrumentedMatch. increments is the
// number of hit-counter increments (the same for both algorithms) and
// compares the number of units whose counter is then inspected: every unit
// slot for Classic, only the touched units for Variant.
func (e *Engine) InstrumentedMatch(alg Algorithm, fulfilled []predicate.ID) (increments, compares int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.candBuf = e.candBuf[:0]
	for _, pid := range fulfilled {
		for _, u := range e.assocOf(pid) {
			if e.hits[u] == 0 {
				e.candBuf = append(e.candBuf, u)
			}
			e.hits[u]++
			increments++
		}
	}
	for _, u := range e.candBuf {
		e.hits[u] = 0
	}
	if alg == Classic {
		return increments, len(e.hits)
	}
	return increments, len(e.candBuf)
}

func (e *Engine) matchPredicatesLocked(fulfilled []predicate.ID) []matcher.SubID {
	if e.opts.Algorithm == Variant {
		return e.matchVariantLocked(fulfilled)
	}
	return e.matchClassicLocked(fulfilled)
}

// matchClassicLocked: predicate counting then a full scan of the hit and
// count vectors — "the number of matching predicates has to be compared to
// the total number of predicates for all registered subscriptions".
func (e *Engine) matchClassicLocked(fulfilled []predicate.ID) []matcher.SubID {
	for _, pid := range fulfilled {
		for _, u := range e.assocOf(pid) {
			e.hits[u]++
		}
	}
	var out []matcher.SubID
	e.epoch++
	for u := range e.hits {
		if e.hits[u] != 0 {
			if e.hits[u] == e.counts[u] && e.liveUnit[u] {
				out = e.appendOrigLocked(out, e.orig[u])
			}
			e.hits[u] = 0
		}
	}
	return out
}

// matchVariantLocked: candidate subscriptions are recorded on first touch;
// only their counters are compared and reset.
func (e *Engine) matchVariantLocked(fulfilled []predicate.ID) []matcher.SubID {
	e.candBuf = e.candBuf[:0]
	for _, pid := range fulfilled {
		for _, u := range e.assocOf(pid) {
			if e.hits[u] == 0 {
				e.candBuf = append(e.candBuf, u)
			}
			e.hits[u]++
		}
	}
	var out []matcher.SubID
	e.epoch++
	for _, u := range e.candBuf {
		if e.hits[u] == e.counts[u] && e.liveUnit[u] {
			out = e.appendOrigLocked(out, e.orig[u])
		}
		e.hits[u] = 0
	}
	return out
}

// appendOrigLocked deduplicates matched units back to original
// subscriptions via an epoch-stamped map.
func (e *Engine) appendOrigLocked(out []matcher.SubID, sid matcher.SubID) []matcher.SubID {
	if e.origMark[sid] == e.epoch {
		return out
	}
	e.origMark[sid] = e.epoch
	return append(out, sid)
}

// NumSubscriptions implements matcher.Matcher.
func (e *Engine) NumSubscriptions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.subs)
}

// NumUnits returns the number of live conjunctive (post-DNF) subscriptions —
// the problem size the counting algorithms actually filter over.
func (e *Engine) NumUnits() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.liveUnits
}

// MemBytes estimates phase-two memory: the hit vector, the count vector, the
// unit→original mapping, the association table, and — only with
// unsubscription support — the per-unit predicate lists.
func (e *Engine) MemBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	const (
		mapEntryOverhead = 48
		sliceHeader      = 24
		unitIDSize       = 4
		subIDSize        = 8
	)
	total := len(e.counts) // count vector, 1 byte per unit
	total += len(e.hits)   // hit vector, 1 byte per unit
	total += len(e.orig) * subIDSize
	total += len(e.liveUnit)
	total += len(e.assoc) * sliceHeader
	for _, units := range e.assoc {
		total += len(units) * unitIDSize
	}
	for _, units := range e.subs {
		total += mapEntryOverhead + len(units)*unitIDSize
	}
	if e.opts.SupportUnsubscribe {
		for _, preds := range e.unitPreds {
			total += 24 + len(preds)*4
		}
	}
	return total
}

// assocOf returns the units containing pid, tolerating predicates that were
// registered only by another engine sharing the registry.
func (e *Engine) assocOf(pid predicate.ID) []uint32 {
	if i := int(pid) - 1; i < len(e.assoc) {
		return e.assoc[i]
	}
	return nil
}
