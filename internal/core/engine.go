// Package core implements the paper's contribution: the non-canonical
// matching engine, which filters arbitrary Boolean subscriptions directly —
// no transformation into DNF — using the four data structures of Fig. 2:
//
//  1. one-dimensional predicate indexes (shared, internal/index),
//  2. a predicate-subscription association table (id(p) → {id(s)}),
//  3. a subscription location table (id(s) → loc(s)),
//  4. encoded subscription trees (internal/subtree).
//
// Event filtering (paper §3.2): phase one determines the fulfilled
// predicates via the indexes; phase two collects candidate subscriptions
// through the association table, locates their encoded trees through the
// location table, and evaluates each candidate's Boolean expression over
// the fulfilled set.
//
// Which subscriptions a fulfilled predicate makes candidates is where this
// engine departs from the paper by default. The paper lists every tree
// under every predicate it contains, so a tree is a candidate as soon as
// any of its predicates is fulfilled. Here a tree whose root is an And is
// listed only under the predicates of one access clause: a top-level
// conjunct (nested top-level Ands flattened) that is false when none of
// its predicates is fulfilled. A matching tree makes its access clause
// true, so one of that clause's predicates is fulfilled and the tree is a
// candidate — for any fulfilled set, including one given to
// MatchPredicates. Among the eligible conjuncts the one with the lowest
// fixed selectivity estimate wins (per leaf: = 1, ranges and substrings 3,
// != and exists 9), ties going to fewer leaves and then to the lower
// summed registry refcount. The estimate is fixed on purpose: ranking by
// current list length reinforces itself, because lists nobody chose stay
// empty and look cheap. Trees without an And root keep the paper's
// listing. Options.PaperAssociation restores the paper's listing for every
// tree; the paper's experiments (internal/bench) run with it.
//
// Phase one is lazy to match. A fulfilled predicate that no tree is listed
// under makes nothing a candidate, so Match and MatchInto find only the
// predicates that can: the index keeps the predicates some tree is listed
// under in its access partition (the engine moves a predicate in when its
// association list becomes non-empty and out when it empties), and phase
// one probes that partition alone. Phase two then decides every leaf the
// probe did not stamp, on demand and once per event: an access predicate
// the probe missed is false, and any other predicate is evaluated against
// the event and the verdict memoised in the epoch-stamped mark table.
// Under PaperAssociation every predicate is listed, so the probe is the
// paper's complete phase one and nothing is resolved on demand.
// MatchPredicates, given a fulfilled set, takes unstamped leaves as false,
// as the paper does.
//
// One correctness extension beyond the paper: subscriptions whose expression
// is satisfiable with zero fulfilled predicates (possible once NOT is
// allowed, e.g. `not a = 1`) can match events for which they are never
// candidates. Such subscriptions are kept on an always-evaluate list. The
// paper's workloads (AND/OR only) never hit this path.
package core

import (
	"fmt"
	"slices"
	"sync"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/subtree"
)

// Options configures the engine.
type Options struct {
	// Encoding selects the subscription-tree layout (default PaperEncoding).
	Encoding subtree.Encoding
	// Reorder enables cheapest-first child ordering at compile time (the A1
	// ablation; paper §3.2 future work).
	Reorder bool
	// Simplify applies boolexpr.Simplify before compilation.
	Simplify bool
	// PaperAssociation lists every subscription under every predicate it
	// contains, as paper §3.2 does, instead of under one access clause
	// (see the package comment). Every predicate is then in the index's
	// access partition, so phase one finds every fulfilled predicate, as
	// the paper's does. Matches are identical either way; only the
	// candidates evaluated and the predicates phase one finds per event
	// differ.
	PaperAssociation bool
}

// Engine is the non-canonical matcher. It is safe for concurrent use, and
// the read path is genuinely concurrent: the subscription store (association
// table, location table, shared registry and index) is guarded by an
// RWMutex — Subscribe and Unsubscribe take the write lock, while Match,
// MatchPredicates and InstrumentedMatch run under the read lock, so any
// number of matching calls proceed simultaneously. The per-call mutable
// state (the epoch-stamped mark tables of §3.2) lives in a matchScratch
// recycled through a sync.Pool and re-sized against a store generation
// counter, so matching callers share no mutable memory.
type Engine struct {
	mu   sync.RWMutex
	reg  *predicate.Registry
	idx  *index.Index
	opts Options

	// assoc is the predicate-subscription association table, dense-indexed
	// by predicate ID (the registry hands out dense IDs). Array storage
	// follows the paper's memory-friendly implementation note ("since we
	// know the number of subscriptions per predicate we use arrays").
	assoc [][]matcher.SubID // assoc[pid-1] = subscriptions containing pid

	// slots is the subscription location table fused with subscription
	// storage: slots[id-1].compiled.Code is loc(s).
	slots []slot
	free  []matcher.SubID
	live  int

	// always lists zero-satisfiable subscriptions, evaluated on every event.
	always []matcher.SubID

	// gen is the store generation, bumped by every Subscribe/Unsubscribe
	// under the write lock. Pooled scratch records the generation it was
	// last sized for and re-syncs its mark tables when the store moved on.
	gen      uint64
	memTrees int // running sum of compiled.MemBytes()

	// scratch pools *matchScratch values for the read path.
	scratch sync.Pool

	// Subscribe's access-clause working buffers, reused under the write
	// lock so choosing a clause allocates nothing once they have grown:
	// conjunct offsets, the conjunct being scored, and the best so far.
	conjBuf   []int
	clauseBuf []predicate.ID
	accessBuf []predicate.ID
}

type slot struct {
	compiled subtree.Compiled
	live     bool
}

// matchScratch is the per-call mutable state of the two filtering phases:
// epoch-stamped mark tables (no per-event clearing) plus reusable buffers.
// Each Match-family call takes one scratch from the engine's pool, so
// concurrent readers never share mark tables. The mark tables are dense
// uint32 arrays separated from the slot structs so the per-event random
// accesses touch minimal cache footprint; on epoch wrap-around both tables
// are zeroed.
type matchScratch struct {
	gen      uint64   // store generation the tables were last sized for
	epoch    uint32   // this scratch's private epoch counter, below resolvedFalse
	predMark []uint32 // indexed by predicate.ID-1: epoch when fulfilled, epoch|resolvedFalse when resolved unfulfilled
	subMark  []uint32 // indexed by SubID-1: epoch when enlisted as candidate
	predBuf  []predicate.ID
	candBuf  []matcher.SubID

	// eng and ev serve Resolve: the engine this scratch is pooled in, and
	// the event being matched while Match or MatchInto evaluates.
	eng *Engine
	ev  event.Event
}

// resolvedFalse is the predMark bit Resolve sets beside the epoch of an
// event a predicate was evaluated false for. Epochs stay below it, so a
// false stamp never reads as fulfilled and a stale one never as false.
const resolvedFalse = 1 << 31

var _ matcher.Matcher = (*Engine)(nil)

// New builds an engine over the shared registry and index. Counting
// engines may share both, but an index serves at most one non-canonical
// engine: which of its partitions holds a predicate is that engine's
// listing (see the package comment).
func New(reg *predicate.Registry, idx *index.Index, opts Options) *Engine {
	if opts.Encoding == 0 {
		opts.Encoding = subtree.PaperEncoding
	}
	return &Engine{reg: reg, idx: idx, opts: opts}
}

// Name implements matcher.Matcher.
func (e *Engine) Name() string { return "non-canonical" }

// Subscribe compiles and registers an arbitrary Boolean subscription.
func (e *Engine) Subscribe(expr boolexpr.Expr) (matcher.SubID, error) {
	if expr == nil {
		return 0, fmt.Errorf("core: nil subscription expression")
	}
	if e.opts.Simplify {
		expr = boolexpr.Simplify(expr)
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	// Record interned predicates so a late compile failure (encoding limits)
	// can roll back reference counts and index entries.
	var interned []predicate.ID
	intern := func(p predicate.P) predicate.ID {
		id := e.internLocked(p)
		interned = append(interned, id)
		return id
	}
	compiled, err := subtree.Compile(expr, intern, subtree.Options{
		Encoding: e.opts.Encoding,
		Reorder:  e.opts.Reorder,
	})
	if err != nil {
		for _, pid := range interned {
			p, gerr := e.reg.Get(pid)
			if gerr != nil {
				continue
			}
			if died, _ := e.reg.Release(pid); died {
				e.idx.Remove(pid, p)
			}
		}
		return 0, fmt.Errorf("core: compile subscription: %w", err)
	}

	id := e.allocLocked()
	s := &e.slots[id-1]
	s.compiled = compiled
	s.live = true
	e.live++
	e.gen++
	e.memTrees += compiled.MemBytes()

	for _, pid := range e.listingLocked(compiled) {
		i := int(pid) - 1
		if i >= len(e.assoc) {
			e.assoc = append(e.assoc, make([][]matcher.SubID, i+1-len(e.assoc))...)
		}
		if len(e.assoc[i]) == 0 {
			p, _ := e.reg.Get(pid) // live: the tree being added holds it
			e.idx.SetAccess(pid, p, true)
		}
		e.assoc[i] = append(e.assoc[i], id)
	}
	if compiled.ZeroSat {
		e.always = append(e.always, id)
	}
	return id, nil
}

// listingLocked returns the predicates a newly compiled tree is listed
// under in the association table: all of them under PaperAssociation or
// when the root is not an And, none for a zero-satisfiable tree (it is on
// the always list), and otherwise the deduplicated leaves of its access
// clause. The result may alias the engine's buffers; caller holds the
// write lock and consumes it before the next Subscribe.
func (e *Engine) listingLocked(c subtree.Compiled) []predicate.ID {
	if e.opts.PaperAssociation {
		return c.PredIDs
	}
	if c.ZeroSat {
		return nil
	}
	e.conjBuf = subtree.Conjuncts(c.Code, e.conjBuf[:0])
	var best []predicate.ID // nil until an eligible conjunct is scored
	bestCost, bestRefs := 0, 0
	for _, off := range e.conjBuf {
		if subtree.EvalMarked(c.Code, off, nil, 1, nil) {
			continue // holds with nothing fulfilled: not necessary
		}
		leaves := subtree.AppendLeaves(c.Code, off, e.clauseBuf[:0])
		slices.Sort(leaves)
		leaves = slices.Compact(leaves)
		cost, refs := 0, 0
		for _, pid := range leaves {
			p, _ := e.reg.Get(pid) // live: the tree being added holds it
			cost += selectivity(p.Op)
			refs += int(e.reg.Refs(pid))
		}
		if best == nil || cost < bestCost ||
			cost == bestCost && (len(leaves) < len(best) || len(leaves) == len(best) && refs < bestRefs) {
			best, bestCost, bestRefs = leaves, cost, refs
			e.clauseBuf, e.accessBuf = e.accessBuf, leaves
			continue
		}
		e.clauseBuf = leaves
	}
	if best == nil { // the root is not an And
		return c.PredIDs
	}
	return best
}

// selectivity is a fixed per-operator estimate of how many events fulfil a
// predicate, relative to equality.
func selectivity(op predicate.Op) int {
	switch op {
	case predicate.Eq:
		return 1
	case predicate.Ne, predicate.Exists:
		return 9
	default: // ranges and substrings
		return 3
	}
}

// internLocked interns p in the shared registry and indexes it on first use.
func (e *Engine) internLocked(p predicate.P) predicate.ID {
	id := e.reg.Intern(p)
	if e.reg.Refs(id) == 1 {
		e.idx.Add(id, p)
	}
	return id
}

func (e *Engine) allocLocked() matcher.SubID {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{})
	return matcher.SubID(len(e.slots))
}

// Unsubscribe removes a subscription, releasing its predicates and shrinking
// the association table (the operation the paper argues requires explicit
// subscription storage, §2.1/§3.2).
func (e *Engine) Unsubscribe(id matcher.SubID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aliveLocked(id) {
		return fmt.Errorf("%w: %d", matcher.ErrUnknownSubscription, id)
	}
	s := &e.slots[id-1]
	for _, pid := range s.compiled.PredIDs {
		p, err := e.reg.Get(pid)
		if err != nil {
			return fmt.Errorf("core: unsubscribe %d: %w", id, err)
		}
		// The tree may be listed under only some of its predicates (access
		// clause); removing it from a list it is not on changes nothing.
		if i := int(pid) - 1; i < len(e.assoc) && len(e.assoc[i]) > 0 {
			e.assoc[i] = removeSub(e.assoc[i], id)
			if len(e.assoc[i]) == 0 {
				e.assoc[i] = nil // release backing storage for dead predicates
				e.idx.SetAccess(pid, p, false)
			}
		}
		died, err := e.reg.Release(pid)
		if err != nil {
			return fmt.Errorf("core: unsubscribe %d: %w", id, err)
		}
		if died {
			e.idx.Remove(pid, p)
		}
	}
	if s.compiled.ZeroSat {
		e.always = removeSub(e.always, id)
	}
	e.memTrees -= s.compiled.MemBytes()
	*s = slot{}
	e.free = append(e.free, id)
	e.live--
	e.gen++
	return nil
}

func removeSub(s []matcher.SubID, id matcher.SubID) []matcher.SubID {
	for i, x := range s {
		if x == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func (e *Engine) aliveLocked(id matcher.SubID) bool {
	return id >= 1 && int(id) <= len(e.slots) && e.slots[id-1].live
}

// Match runs both filtering phases. Calls proceed concurrently with other
// Match-family calls; only Subscribe/Unsubscribe exclude them.
//
//nclint:hotpath
func (e *Engine) Match(ev event.Event) []matcher.SubID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sc := e.getScratchRLocked()
	defer e.scratch.Put(sc)
	epoch := e.prepareEvent(sc, ev)
	if len(sc.candBuf) == 0 {
		return nil
	}
	return e.evalEvent(sc, ev, epoch, make([]matcher.SubID, 0, len(sc.candBuf)))
}

// MatchInto is Match in append style: matching subscription IDs are
// appended to out and the extended slice returned. With a caller-recycled
// buffer the steady state allocates nothing — this is the broker's
// publish path.
//
//nclint:hotpath
func (e *Engine) MatchInto(ev event.Event, out []matcher.SubID) []matcher.SubID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sc := e.getScratchRLocked()
	defer e.scratch.Put(sc)
	return e.evalEvent(sc, ev, e.prepareEvent(sc, ev), out)
}

// MatchPredicates runs phase two only, concurrently with other readers.
//
//nclint:hotpath
func (e *Engine) MatchPredicates(fulfilled []predicate.ID) []matcher.SubID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sc := e.getScratchRLocked()
	defer e.scratch.Put(sc)
	return e.matchScratched(sc, fulfilled)
}

// getScratchRLocked takes a scratch off the pool and syncs it with the
// store (syncScratchRLocked).
//
//nclint:hotpath
func (e *Engine) getScratchRLocked() *matchScratch {
	sc, _ := e.scratch.Get().(*matchScratch)
	if sc == nil {
		sc = &matchScratch{eng: e}
	}
	e.syncScratchRLocked(sc)
	return sc
}

// syncScratchRLocked: when the generation moved since sc was last used, the
// subscription mark table is grown to cover every allocated slot and the
// predicate mark table to cover the registry's ID space (the caller's read
// lock pins gen, len(slots) and every ID a live tree holds). Sizing here,
// not during evaluation, keeps the table Resolve stamps the very slice the
// tree walk reads. predMark also grows in prepare — fulfilled IDs given to
// MatchPredicates may exceed the store's own when the registry is shared
// with another engine.
//
//nclint:hotpath
func (e *Engine) syncScratchRLocked(sc *matchScratch) {
	if sc.gen != e.gen {
		sc.subMark = grow(sc.subMark, len(e.slots))
		sc.predMark = grow(sc.predMark, e.reg.Cap())
		sc.gen = e.gen
	}
}

// grow extends a mark table with zeroes to at least n entries.
//
//nclint:hotpath
func grow(marks []uint32, n int) []uint32 {
	if len(marks) >= n {
		return marks
	}
	return append(marks, make([]uint32, n-len(marks))...)
}

// prepareEvent runs phase one for ev over the index's access partition and
// prepares phase two as prepare does. Caller holds at least the read lock.
//
//nclint:hotpath
func (e *Engine) prepareEvent(sc *matchScratch, ev event.Event) (epoch uint32) {
	sc.predBuf = e.idx.MatchAccess(ev, sc.predBuf[:0])
	return e.prepare(sc, sc.predBuf)
}

// prepare stamps the fulfilled set into the scratch's predMark and collects
// into its candBuf, deduplicated, every subscription phase two evaluates:
// those listed under a fulfilled predicate (paper §3.2, step two, narrowed
// to access clauses unless PaperAssociation), then the always-evaluate
// list. Caller holds at least the read lock.
//
//nclint:hotpath
func (e *Engine) prepare(sc *matchScratch, fulfilled []predicate.ID) (epoch uint32) {
	sc.epoch++
	if sc.epoch == resolvedFalse { // wrap-around: stale stamps become ambiguous, clear
		clear(sc.predMark)
		clear(sc.subMark)
		sc.epoch = 1
	}
	epoch = sc.epoch
	for _, pid := range fulfilled {
		i := int(pid) - 1
		sc.predMark = grow(sc.predMark, i+1)
		sc.predMark[i] = epoch
	}
	sc.candBuf = sc.candBuf[:0]
	for _, pid := range fulfilled {
		i := int(pid) - 1
		if i >= len(e.assoc) {
			continue // predicate registered by another engine only
		}
		sc.enlist(e.assoc[i], epoch)
	}
	// Zero-satisfiable subscriptions are evaluated even without candidacy.
	sc.enlist(e.always, epoch)
	return epoch
}

// enlist appends to candBuf each of ids not yet stamped this epoch.
//
//nclint:hotpath
func (sc *matchScratch) enlist(ids []matcher.SubID, epoch uint32) {
	for _, sid := range ids {
		if sc.subMark[sid-1] == epoch {
			continue
		}
		sc.subMark[sid-1] = epoch
		sc.candBuf = append(sc.candBuf, sid)
	}
}

// matchScratched runs phase two over the given scratch. Caller holds at
// least the read lock. The result is presized to the candidate count —
// the only allocation a phase-two pass performs, and only when there are
// candidates at all (a zero-capacity make does not allocate).
//
//nclint:hotpath
func (e *Engine) matchScratched(sc *matchScratch, fulfilled []predicate.ID) []matcher.SubID {
	epoch := e.prepare(sc, fulfilled)
	if len(sc.candBuf) == 0 {
		return nil
	}
	out := make([]matcher.SubID, 0, len(sc.candBuf))
	return e.evalPrepared(sc, epoch, nil, out)
}

// evalEvent evaluates the subscriptions prepareEvent prepared into sc,
// resolving the leaves phase one left unstamped against ev.
//
//nclint:hotpath
func (e *Engine) evalEvent(sc *matchScratch, ev event.Event, epoch uint32, out []matcher.SubID) []matcher.SubID {
	sc.ev = ev
	out = e.evalPrepared(sc, epoch, sc, out)
	sc.ev = event.Event{} // a pooled scratch must not pin the event's frame
	return out
}

// evalPrepared evaluates the subscriptions prepared into sc, appending
// matches to out. Leaves sc.predMark does not stamp are decided by r, or
// are false when r is nil. Caller holds at least the read lock and owns
// out; nothing is allocated here unless out grows.
//
//nclint:hotpath
func (e *Engine) evalPrepared(sc *matchScratch, epoch uint32, r subtree.Resolver, out []matcher.SubID) []matcher.SubID {
	for _, sid := range sc.candBuf {
		if subtree.EvalMarked(e.slots[sid-1].compiled.Code, 1, sc.predMark, epoch, r) {
			out = append(out, sid)
		}
	}
	return out
}

// Resolve decides a leaf phase one did not stamp (subtree.Resolver). An
// access predicate is false: phase one probed its partition completely.
// Any other predicate is evaluated against the event once per epoch, and
// the verdict memoised in predMark — the epoch when true, the epoch with
// resolvedFalse set when false. Caller holds at least the read lock, and
// syncScratchRLocked sized predMark past every ID a live tree holds.
//
//nclint:hotpath
func (sc *matchScratch) Resolve(pid predicate.ID) bool {
	i := int(pid) - 1
	e := sc.eng
	if i < len(e.assoc) && len(e.assoc[i]) > 0 || sc.predMark[i] == sc.epoch|resolvedFalse {
		return false
	}
	p, _ := e.reg.Get(pid) // live: a live tree holds it
	if p.Eval(sc.ev) {
		sc.predMark[i] = sc.epoch
		return true
	}
	sc.predMark[i] = sc.epoch | resolvedFalse
	return false
}

// InstrumentedMatch runs phase two like MatchPredicates but returns the
// total number of leaf predicates inspected and the number of tree
// evaluations performed — candidates and the always-evaluate list, exactly
// the set MatchPredicates evaluates — instead of the match set. The A1 and
// access-clause ablations use it to count phase-two work.
func (e *Engine) InstrumentedMatch(fulfilled []predicate.ID) (leaves, evals int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sc := e.getScratchRLocked()
	defer e.scratch.Put(sc)
	epoch := e.prepare(sc, fulfilled)
	matched := func(pid predicate.ID) bool {
		i := int(pid) - 1
		return i >= 0 && i < len(sc.predMark) && sc.predMark[i] == epoch
	}
	for _, sid := range sc.candBuf {
		_, n := subtree.CountEvaluatedLeaves(e.slots[sid-1].compiled.Code, matched)
		leaves += n
	}
	return leaves, len(sc.candBuf)
}

// TreeBytes returns the total encoded size of all live subscription trees —
// the storage the A2 encoding ablation compares.
func (e *Engine) TreeBytes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	total := 0
	for i := range e.slots {
		if e.slots[i].live {
			total += len(e.slots[i].compiled.Code)
		}
	}
	return total
}

// Listed reports whether some tree is listed under pid, which is to say
// whether pid is in the index's access partition, where the engine's own
// phase one looks.
func (e *Engine) Listed(pid predicate.ID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i := int(pid) - 1
	return i >= 0 && i < len(e.assoc) && len(e.assoc[i]) > 0
}

// AssocEntries returns the number of (predicate, subscription) entries in
// the association table: how many lists the live trees are listed on.
func (e *Engine) AssocEntries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, subs := range e.assoc {
		n += len(subs)
	}
	return n
}

// NumSubscriptions implements matcher.Matcher.
func (e *Engine) NumSubscriptions() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.live
}

// NumUnits implements matcher.Matcher: the non-canonical engine stores one
// unit per subscription.
func (e *Engine) NumUnits() int { return e.NumSubscriptions() }

// Expr reconstructs the registered expression of a subscription (primarily
// for introspection and tests).
func (e *Engine) Expr(id matcher.SubID) (boolexpr.Expr, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.aliveLocked(id) {
		return nil, fmt.Errorf("%w: %d", matcher.ErrUnknownSubscription, id)
	}
	return subtree.Decode(e.slots[id-1].compiled.Code, e.reg.Get)
}

// MemBytes estimates phase-two memory: encoded trees, the association table
// and the location table (paper §3.2: "unlike current algorithms, we
// explicitly store subscriptions and thus require memory for their
// storage").
func (e *Engine) MemBytes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.memBytesLocked()
}

func (e *Engine) memBytesLocked() int {
	// Pooled match scratch is transient per-reader state and excluded, like
	// the paper excludes per-event working memory.
	const (
		sliceHeader  = 24
		subIDSize    = 8
		slotOverhead = 1 /* live flag */
	)
	total := e.memTrees
	total += len(e.assoc) * sliceHeader
	for _, subs := range e.assoc {
		total += len(subs) * subIDSize
	}
	total += len(e.slots) * slotOverhead
	total += len(e.free) * subIDSize
	total += len(e.always) * subIDSize
	return total
}
