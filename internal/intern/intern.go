// Package intern implements the process-wide symbol table for event
// attribute names: a concurrent, insert-only map from name to a dense
// numeric symbol. Interning turns every name comparison on the matching
// spine — phase-one index dispatch, predicate evaluation, event equality —
// into a 32-bit integer compare instead of string hashing.
//
// The table is deliberately asymmetric about who may grow it:
//
//   - Of inserts. It is called where subscriptions are registered
//     (predicate construction, index insertion) and by local event
//     construction (event.Set), so the table's size is bounded by the
//     local subscription and publication vocabulary.
//   - Lookup and LookupBytes never insert. The wire decoder resolves
//     attribute names through them exclusively, so a hostile remote peer
//     streaming fabricated names cannot grow the table — unknown names
//     ride through the system as plain strings with symbol None and fall
//     back to name comparison where it matters.
//
// Concurrency: reads are lock-free against an immutable snapshot behind an
// atomic pointer. Inserts go to a mutex-guarded dirty overlay which is
// promoted (merged into a fresh snapshot) once it has grown proportionally
// to the snapshot or once enough reads have had to take the slow path, the
// amortisation scheme of sync.Map specialised to an insert-only table with
// dense IDs. Symbols are never reused or reclaimed; a symbol, once handed
// out, names the same string for the life of the process.
package intern

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is an interned attribute name. The zero value None means "not
// interned": consumers must treat it as "compare by name", never as a
// table index. Symbols are dense, starting at 1.
type Sym uint32

// None is the Sym of a name that has not been interned (or a value that
// was constructed without consulting the table).
const None Sym = 0

// snapshot is the immutable read view: byName resolves names, names[s-1]
// is the name of Sym s.
type snapshot struct {
	byName map[string]Sym
	names  []string
}

var (
	mu         sync.Mutex // guards dirty, dirtyNames, misses and promotion
	clean      atomic.Pointer[snapshot]
	dirty      map[string]Sym // inserts since the last promotion
	dirtyNames []string       // dirty's names in insertion (= Sym) order
	hasDirty   atomic.Bool    // lets read misses skip the lock when clean is complete
	misses     int            // slow-path hits since the last promotion
)

func init() {
	clean.Store(&snapshot{byName: map[string]Sym{}})
}

// Of returns the symbol for name, interning it on first use. Safe for
// concurrent use; the fast path (name already promoted) is one atomic load
// and one map probe.
func Of(name string) Sym {
	if s, ok := clean.Load().byName[name]; ok {
		return s
	}
	mu.Lock()
	defer mu.Unlock()
	snap := clean.Load()
	if s, ok := snap.byName[name]; ok {
		return s
	}
	if s, ok := dirty[name]; ok {
		// A hot name stuck in the overlay costs every caller this lock;
		// count it toward promotion like a read miss.
		misses++
		if misses >= len(dirtyNames) {
			promoteLocked(snap)
		}
		return s
	}
	if dirty == nil {
		dirty = make(map[string]Sym, 8)
	}
	// The table keeps its own copy: name may be a substring of a larger
	// transient string, such as a subscription's text.
	name = strings.Clone(name)
	s := Sym(len(snap.names) + len(dirtyNames) + 1)
	dirty[name] = s
	dirtyNames = append(dirtyNames, name)
	hasDirty.Store(true)
	// Promote once the overlay rivals the snapshot (amortised O(1) per
	// insert: a promotion copying n entries is paid for by ~n inserts).
	if len(dirtyNames) >= 16 && len(dirtyNames) >= len(snap.names) {
		promoteLocked(snap)
	}
	return s
}

// Lookup returns the symbol for name without interning it. This is the
// wire decoder's resolver: remote input can never grow the table.
func Lookup(name string) (Sym, bool) {
	if s, ok := clean.Load().byName[name]; ok {
		return s, true
	}
	if !hasDirty.Load() {
		// A promotion may have drained the overlay between our two loads;
		// promotion publishes the snapshot before clearing the flag, so one
		// clean re-read closes the window.
		s, ok := clean.Load().byName[name]
		return s, ok
	}
	return lookupSlow(name)
}

// LookupBytes is Lookup for a byte-slice key, letting the wire decoder
// probe the table straight out of the frame buffer. The string conversion
// in the map index expression does not allocate (compiler-recognised
// pattern), so a hit costs no copy at all.
func LookupBytes(b []byte) (Sym, bool) {
	if s, ok := clean.Load().byName[string(b)]; ok {
		return s, true
	}
	if !hasDirty.Load() {
		s, ok := clean.Load().byName[string(b)]
		return s, ok
	}
	return lookupSlow(string(b))
}

func lookupSlow(name string) (Sym, bool) {
	mu.Lock()
	defer mu.Unlock()
	snap := clean.Load()
	if s, ok := snap.byName[name]; ok {
		return s, true
	}
	s, ok := dirty[name]
	if ok {
		misses++
		if misses >= len(dirtyNames) {
			promoteLocked(snap)
		}
	}
	return s, ok
}

// Name returns the string a symbol names, or "" for None and symbols never
// handed out. The returned string is the table's canonical copy: it stays
// reachable for the life of the process, so holding it never pins a
// transient buffer.
func Name(s Sym) string {
	if s == None {
		return ""
	}
	snap := clean.Load()
	if int(s) <= len(snap.names) {
		return snap.names[s-1]
	}
	mu.Lock()
	defer mu.Unlock()
	snap = clean.Load()
	if int(s) <= len(snap.names) {
		return snap.names[s-1]
	}
	if i := int(s) - len(snap.names) - 1; i < len(dirtyNames) {
		return dirtyNames[i]
	}
	return ""
}

// Len returns the number of interned names.
func Len() int {
	mu.Lock()
	defer mu.Unlock()
	return len(clean.Load().names) + len(dirtyNames)
}

// promoteLocked merges the overlay into a fresh snapshot. Caller holds mu.
// Order matters for lock-free readers: the new snapshot is published
// before hasDirty clears, so a reader that observes the flag down is
// guaranteed to find every promoted name in its next clean load.
func promoteLocked(snap *snapshot) {
	ns := &snapshot{
		byName: make(map[string]Sym, len(snap.byName)+len(dirty)),
		names:  make([]string, 0, len(snap.names)+len(dirtyNames)),
	}
	for k, v := range snap.byName {
		ns.byName[k] = v
	}
	ns.names = append(ns.names, snap.names...)
	for k, v := range dirty {
		ns.byName[k] = v
	}
	ns.names = append(ns.names, dirtyNames...)
	clean.Store(ns)
	dirty, dirtyNames, misses = nil, nil, 0
	hasDirty.Store(false)
}
