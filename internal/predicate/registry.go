package predicate

import (
	"errors"
	"fmt"
)

// ErrNotFound is returned when an ID does not name a live predicate.
var ErrNotFound = errors.New("predicate: id not registered")

// Registry interns predicates and assigns IDs. Predicates are reference
// counted: every subscription using a predicate takes one reference, and the
// predicate (and its index entries) can be dropped when the count reaches
// zero on unsubscription.
//
// Registry is not safe for concurrent use; engines serialise access.
type Registry struct {
	byKey  map[Key]ID
	preds  []P      // dense storage indexed by ID-1
	refs   []uint32 // reference counts, parallel to preds
	free   []ID     // reusable IDs whose refcount dropped to zero
	live   int
	memory int // running MemBytes over live predicates
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[Key]ID)}
}

// Intern registers p (or finds the existing identical predicate), increments
// its reference count and returns its ID.
func (r *Registry) Intern(p P) ID {
	k := p.Key()
	if id, ok := r.byKey[k]; ok {
		r.refs[id-1]++
		return id
	}
	var id ID
	if n := len(r.free); n > 0 {
		id = r.free[n-1]
		r.free = r.free[:n-1]
		r.preds[id-1] = p
		r.refs[id-1] = 1
	} else {
		r.preds = append(r.preds, p)
		r.refs = append(r.refs, 1)
		id = ID(len(r.preds))
	}
	r.byKey[k] = id
	r.live++
	r.memory += p.MemBytes()
	return id
}

// Get returns the predicate for id.
func (r *Registry) Get(id ID) (P, error) {
	if !r.alive(id) {
		return P{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return r.preds[id-1], nil
}

// Release decrements the reference count for id. It reports whether the
// predicate died (count reached zero), in which case the caller must remove
// it from the indexes. Releasing an unknown ID returns ErrNotFound.
func (r *Registry) Release(id ID) (died bool, err error) {
	if !r.alive(id) {
		return false, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	i := id - 1
	r.refs[i]--
	if r.refs[i] > 0 {
		return false, nil
	}
	p := r.preds[i]
	delete(r.byKey, p.Key())
	r.preds[i] = P{}
	r.free = append(r.free, id)
	r.live--
	r.memory -= p.MemBytes()
	return true, nil
}

// Refs returns the current reference count of id (0 if dead/unknown).
func (r *Registry) Refs(id ID) uint32 {
	if !r.alive(id) {
		return 0
	}
	return r.refs[id-1]
}

// Len returns the number of live predicates.
func (r *Registry) Len() int { return r.live }

// Cap returns the total ID space ever allocated (live + reusable).
func (r *Registry) Cap() int { return len(r.preds) }

// MemBytes estimates resident bytes of all live predicates plus registry
// overhead, for the memory model (experiment M1).
func (r *Registry) MemBytes() int {
	const mapEntryOverhead = 64 // key struct + map bucket amortised
	const sliceEntryOverhead = 4 + 4
	return r.memory + r.live*mapEntryOverhead + len(r.preds)*sliceEntryOverhead
}

func (r *Registry) alive(id ID) bool {
	return id >= 1 && int(id) <= len(r.preds) && r.refs[id-1] > 0
}
