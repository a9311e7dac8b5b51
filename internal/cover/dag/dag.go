// Package dag maintains an incremental covering poset over live filters.
//
// Nodes are interned filters (one node per cover.Key equivalence class,
// plus merged provably-equivalent classes), edges record proven coverage:
// an edge parent→child means cover.Covers(parent, child) — every event the
// child matches, the parent matches too. The *frontier* is the set of
// uncovered-maximal nodes; it is exactly the set of filters a broker needs
// to register with its matching engine, because every covered node is
// reachable from some frontier node and soundness of each stored edge
// chains by transitivity of ⊆ (even where the prover could not prove the
// composite implication directly).
//
// Inserts do not scan all live nodes. cover.RequiredPins/ProvablePins/
// SelfUnsat/Tautology bound which pairs the prover could possibly relate,
// and the DAG indexes nodes by those facts so an insert probes a small
// candidate set. The candidate filter is lossless with respect to the
// prover (see internal/cover/probe.go); dag's differential tests hold it
// against a scan-everything oracle.
//
// Two packages drive it: internal/broker maps the frontier onto engine
// entries (covering aggregation), and internal/router keeps one poset per
// federation link, whose far side holds the poset's sent nodes, the
// frontier among them (covering-pruned flooding).
//
// The structure is not safe for concurrent use; callers guard it with
// their own lock (the broker) or own it from one goroutine (the router).
package dag

import (
	"fmt"
	"sort"

	"noncanon/internal/boolexpr"
	"noncanon/internal/cover"
)

// maxParents bounds how many proven parents an insert records before the
// candidate scan stops. One parent is enough to decide covered-vs-frontier;
// the extras make unsubscribe cheaper (an orphan with a surviving parent
// needs no rescan). The cap keeps dense workloads — a narrow filter covered
// by hundreds of broader ones — from storing quadratic edges. Scans visit
// candidates in insertion order, so the recorded parents are deterministic.
const maxParents = 4

// Node is one live filter class in the poset.
type Node struct {
	seq      int64
	keys     []string // cover.Key aliases interned to this node (≥1)
	expr     boolexpr.Expr
	refs     int
	parents  []*Node
	children []*Node
	frontier bool

	// candidate-index metadata, fixed at insert
	reqPins   []cover.Pin
	provPins  []cover.Pin
	absorbing bool // cover.SelfUnsat: covered by everything

	// Data is an arbitrary caller payload (the broker hangs its fan-out
	// group here so delivery needs no map lookups; the router, what the
	// far side of the link knows about the node).
	Data any
}

// Expr returns the node's representative filter.
func (n *Node) Expr() boolexpr.Expr { return n.expr }

// Key returns the node's primary interning key (the key it was first
// inserted under; equivalence merges alias further keys to the node).
func (n *Node) Key() string { return n.keys[0] }

// Frontier reports whether the node is uncovered-maximal (holds an engine
// entry when driven by the broker).
func (n *Node) Frontier() bool { return n.frontier }

// Refs returns the node's live subscription count.
func (n *Node) Refs() int { return n.refs }

// Children returns the node's covered children. The slice is the DAG's
// internal storage: callers may iterate (the broker's delivery DFS does,
// under its read lock) but must not mutate or retain it across DAG ops.
func (n *Node) Children() []*Node { return n.children }

// Parents returns the node's recorded proven coverers (internal storage;
// same caveats as Children). Empty iff the node is frontier.
func (n *Node) Parents() []*Node { return n.parents }

// AddResult describes the effect of an Add on the frontier.
type AddResult struct {
	Node *Node
	// New is true when a node was created (first subscription for this
	// filter class); false when the key or a proven-equivalent node was
	// already live and only its refcount grew.
	New bool
	// Frontier is the node's status after the insert. A caller keeping an
	// engine in sync subscribes the node's expr iff New && Frontier.
	Frontier bool
	// Demoted lists previously-frontier nodes now covered (by the new
	// node); their engine entries must be retracted *after* any new entry
	// is added so matching never gaps.
	Demoted []*Node
}

// ReleaseResult describes the effect of a Release on the frontier.
type ReleaseResult struct {
	// Died is true when the last reference was released and the node left
	// the poset.
	Died bool
	// WasFrontier is true when the dying node held frontier status (its
	// engine entry must be retracted *after* subscribing Promoted).
	WasFrontier bool
	// Promoted lists children orphaned by the death that rejoined the
	// frontier (no other proven parent survives).
	Promoted []*Node
}

// DAG is the incremental covering poset. The zero value is not usable; use
// New.
type DAG struct {
	byKey map[string]*Node // every alias key → its node
	nodes []*Node          // live nodes in insertion order
	seq   int64
	refs  int
	front int // frontier node count

	// candidate index (see parentCandidates/frontierCandidates)
	loose     []*Node               // nodes with no required pins: always candidate parents
	reqBucket map[cover.Pin][]*Node // nodes keyed by their first required pin
	provPin   map[cover.Pin][]*Node // nodes keyed by every provable pin
	absorbing []*Node               // SelfUnsat nodes: candidate children of anything
}

// New returns an empty covering poset.
func New() *DAG {
	return &DAG{
		byKey:     make(map[string]*Node),
		reqBucket: make(map[cover.Pin][]*Node),
		provPin:   make(map[cover.Pin][]*Node),
	}
}

// Len returns the number of live filter classes (distinct live filters).
func (d *DAG) Len() int { return len(d.nodes) }

// FrontierLen returns the number of frontier nodes (engine entries).
func (d *DAG) FrontierLen() int { return d.front }

// Refs returns the total live subscription count across all nodes.
func (d *DAG) Refs() int { return d.refs }

// Nodes returns the live nodes in insertion order (fresh slice).
func (d *DAG) Nodes() []*Node { return append([]*Node(nil), d.nodes...) }

// Lookup returns the live node key is interned to, or nil.
func (d *DAG) Lookup(key string) *Node {
	return d.byKey[key]
}

// Add interns expr under its cover.Key and returns the resulting node and
// frontier effects. Equivalent to AddKeyed(cover.Key(expr), expr).
func (d *DAG) Add(expr boolexpr.Expr) AddResult {
	return d.AddKeyed(cover.Key(expr), expr)
}

// AddKeyed interns expr under key (which must be cover.Key(expr), computed
// by the caller — typically outside its broker lock) and increments the
// node's refcount. If the key is unknown, the poset is updated: the new
// node either merges into a proven-equivalent live node, attaches under
// proven coverers, or joins the frontier, demoting any frontier nodes it
// provably covers.
func (d *DAG) AddKeyed(key string, expr boolexpr.Expr) AddResult {
	if n, ok := d.byKey[key]; ok {
		n.refs++
		d.refs++
		return AddResult{Node: n, Frontier: n.frontier}
	}

	absorbing := cover.SelfUnsat(expr)
	provPins := cover.ProvablePins(expr)

	// Probe candidate parents in insertion order. A mutual cover is a
	// provably equivalent live node: merge instead of creating a node
	// (leaving both live would demote each under the other and the class
	// could fall off the frontier entirely).
	var parents []*Node
	for _, c := range d.parentCandidates(absorbing, provPins) {
		if !cover.Covers(c.expr, expr) {
			continue
		}
		if cover.Covers(expr, c.expr) {
			c.keys = append(c.keys, key)
			d.byKey[key] = c
			c.refs++
			d.refs++
			return AddResult{Node: c, Frontier: c.frontier}
		}
		parents = append(parents, c)
		if len(parents) == maxParents {
			break
		}
	}

	d.seq++
	n := &Node{
		seq:       d.seq,
		keys:      []string{key},
		expr:      expr,
		refs:      1,
		parents:   parents,
		frontier:  len(parents) == 0,
		reqPins:   cover.RequiredPins(expr),
		provPins:  provPins,
		absorbing: absorbing,
	}
	d.byKey[key] = n
	d.nodes = append(d.nodes, n)
	d.refs++
	d.index(n)
	for _, p := range parents {
		p.children = append(p.children, n)
	}
	if n.frontier {
		d.front++
	}

	// Demote frontier nodes the new one provably covers. This runs even
	// when n itself lands covered: the demoted node is then reachable from
	// the frontier through n's own parents, and leaving it maximal would
	// violate frontier minimality. The reachability guard skips the edge
	// in the degenerate case where proof asymmetry around a semantically
	// equal cycle would close a loop (see addEdge).
	var demoted []*Node
	for _, f := range d.frontierCandidates(n) {
		if f == n || !f.frontier || !cover.Covers(expr, f.expr) {
			continue
		}
		if !d.addEdge(n, f) {
			continue
		}
		f.frontier = false
		d.front--
		demoted = append(demoted, f)
	}
	return AddResult{Node: n, New: true, Frontier: n.frontier, Demoted: demoted}
}

// Release decrements n's refcount. When the last reference goes, the node
// leaves the poset: children that lose their only recorded parent are
// re-scanned for surviving coverers and promoted to the frontier if none
// remain — the returned ordering contract (subscribe Promoted before
// retracting the dead node's entry) mirrors the overlay's
// re-flood-before-retract rule so matching never gaps.
func (d *DAG) Release(n *Node) ReleaseResult {
	if n.refs <= 0 {
		panic("dag: Release of dead node")
	}
	n.refs--
	d.refs--
	if n.refs > 0 {
		return ReleaseResult{}
	}

	// Unlink n everywhere first so rescans below cannot pick it.
	for _, k := range n.keys {
		delete(d.byKey, k)
	}
	removeNode(&d.nodes, n)
	d.unindex(n)
	for _, p := range n.parents {
		removeNode(&p.children, n)
	}

	res := ReleaseResult{Died: true, WasFrontier: n.frontier}
	if n.frontier {
		d.front--
	}
	for _, c := range n.children {
		removeNode(&c.parents, n)
		if len(c.parents) > 0 || c.frontier {
			continue
		}
		// Orphaned: look for surviving coverers beyond the capped parent
		// set recorded at insert. addEdge re-checks reachability so a
		// rescan between mutually-equivalent survivors cannot close a
		// cycle.
		for _, p := range d.parentCandidates(c.absorbing, c.provPins) {
			if p == c || !cover.Covers(p.expr, c.expr) {
				continue
			}
			if !d.addEdge(p, c) {
				continue
			}
			if len(c.parents) == maxParents {
				break
			}
		}
		if len(c.parents) == 0 {
			c.frontier = true
			d.front++
			res.Promoted = append(res.Promoted, c)
		}
	}
	n.children = nil
	n.parents = nil
	return res
}

// addEdge records proven coverage parent→child unless the edge would close
// a cycle, i.e. parent is reachable from child through existing edges.
// Cycles are only possible among semantically equal nodes whose pairwise
// proofs all point one way (mutual proofs merge at insert), a degenerate
// corner of the prover's incompleteness; skipping the edge there keeps the
// graph acyclic and is sound — it can only leave a node on the frontier
// that a complete prover would have demoted.
func (d *DAG) addEdge(parent, child *Node) bool {
	if reaches(child, parent) {
		return false
	}
	parent.children = append(parent.children, child)
	child.parents = append(child.parents, parent)
	return true
}

// reaches reports whether target is reachable from n via child edges.
func reaches(n, target *Node) bool {
	if n == target {
		return true
	}
	var visited map[*Node]bool
	stack := append([]*Node(nil), n.children...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == target {
			return true
		}
		if len(x.children) == 0 {
			continue
		}
		if visited == nil {
			visited = make(map[*Node]bool)
		}
		if visited[x] {
			continue
		}
		visited[x] = true
		stack = append(stack, x.children...)
	}
	return false
}

// parentCandidates returns, in insertion order, every live node that could
// possibly cover a filter with the given probe facts. Losslessness (per
// internal/cover/probe.go): a provable coverer either has no required pins
// (loose — includes every provable tautology), or each of its required
// pins is provable from the coveree, or the coveree is absorbing (then
// anything covers it, so all nodes are candidates).
func (d *DAG) parentCandidates(absorbing bool, provPins []cover.Pin) []*Node {
	if absorbing {
		return d.nodes
	}
	if len(provPins) == 0 {
		return d.loose
	}
	cands := d.loose
	merged := false
	for _, pin := range provPins {
		bucket := d.reqBucket[pin]
		if len(bucket) == 0 {
			continue
		}
		if !merged {
			cands = append(append(make([]*Node, 0, len(cands)+len(bucket)), cands...), bucket...)
			merged = true
		} else {
			cands = append(cands, bucket...)
		}
	}
	if !merged {
		return cands
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	return cands
}

// frontierCandidates returns every live node that n could possibly cover
// (callers still filter to frontier status). A provable coveree either
// proves each of n's required pins (found via the provable-pin index), or
// is absorbing (covered by anything). When n has no required pins, nothing
// restricts its coverees and the scan is the full node list.
func (d *DAG) frontierCandidates(n *Node) []*Node {
	if len(n.reqPins) == 0 {
		return d.nodes
	}
	cands := d.provPin[n.reqPins[0]]
	if len(d.absorbing) == 0 {
		return cands
	}
	out := append(append(make([]*Node, 0, len(cands)+len(d.absorbing)), cands...), d.absorbing...)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return dedupNodes(out)
}

func (d *DAG) index(n *Node) {
	if len(n.reqPins) == 0 {
		d.loose = append(d.loose, n)
	} else {
		d.reqBucket[n.reqPins[0]] = append(d.reqBucket[n.reqPins[0]], n)
	}
	for _, pin := range n.provPins {
		d.provPin[pin] = append(d.provPin[pin], n)
	}
	if n.absorbing {
		d.absorbing = append(d.absorbing, n)
	}
}

func (d *DAG) unindex(n *Node) {
	if len(n.reqPins) == 0 {
		removeNode(&d.loose, n)
	} else {
		removeFromBucket(d.reqBucket, n.reqPins[0], n)
	}
	for _, pin := range n.provPins {
		removeFromBucket(d.provPin, pin, n)
	}
	if n.absorbing {
		removeNode(&d.absorbing, n)
	}
}

// removeNode deletes n from s preserving order (insertion order is the
// determinism contract for candidate scans).
func removeNode(s *[]*Node, n *Node) {
	for i, x := range *s {
		if x == n {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}

func removeFromBucket(m map[cover.Pin][]*Node, pin cover.Pin, n *Node) {
	b := m[pin]
	removeNode(&b, n)
	if len(b) == 0 {
		delete(m, pin)
	} else {
		m[pin] = b
	}
}

func dedupNodes(s []*Node) []*Node {
	out := s[:0]
	for i, n := range s {
		if i == 0 || n != s[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// CheckInvariants verifies the poset's structural invariants and returns a
// descriptive error on the first violation. It is exact (no prover calls)
// and cheap enough for tests to run after every operation:
//
//   - refcount totals and node/frontier counters match the stored graph;
//   - edges are consistent (parent lists mirror child lists) and acyclic;
//   - a node is frontier iff it has no recorded parents;
//   - every covered node is reachable from some frontier node.
func (d *DAG) CheckInvariants() error {
	refs, front := 0, 0
	seen := make(map[*Node]bool, len(d.nodes))
	for _, n := range d.nodes {
		seen[n] = true
	}
	if len(seen) != len(d.nodes) {
		return fmt.Errorf("dag: duplicate node in live list")
	}
	for _, n := range d.nodes {
		refs += n.refs
		if n.refs <= 0 {
			return fmt.Errorf("dag: live node %q with refs=%d", n.Key(), n.refs)
		}
		if n.frontier {
			front++
		}
		if n.frontier != (len(n.parents) == 0) {
			return fmt.Errorf("dag: node %q frontier=%v with %d parents", n.Key(), n.frontier, len(n.parents))
		}
		for _, p := range n.parents {
			if !seen[p] {
				return fmt.Errorf("dag: node %q has dead parent", n.Key())
			}
			if !containsNode(p.children, n) {
				return fmt.Errorf("dag: parent %q missing child %q", p.Key(), n.Key())
			}
		}
		for _, c := range n.children {
			if !seen[c] {
				return fmt.Errorf("dag: node %q has dead child", n.Key())
			}
			if !containsNode(c.parents, n) {
				return fmt.Errorf("dag: child %q missing parent %q", c.Key(), n.Key())
			}
		}
		for _, k := range n.keys {
			if d.byKey[k] != n {
				return fmt.Errorf("dag: key %q not aliased to its node", k)
			}
		}
	}
	if refs != d.refs {
		return fmt.Errorf("dag: refs counter %d, stored %d", d.refs, refs)
	}
	if front != d.front {
		return fmt.Errorf("dag: frontier counter %d, stored %d", d.front, front)
	}
	if len(d.byKey) < len(d.nodes) {
		return fmt.Errorf("dag: %d keys for %d nodes", len(d.byKey), len(d.nodes))
	}

	// Acyclicity + frontier reachability in one pass: every node must be
	// reachable from a frontier node, and the DFS must never revisit a
	// node on the current path.
	reached := make(map[*Node]bool, len(d.nodes))
	onPath := make(map[*Node]bool)
	var dfs func(n *Node) error
	dfs = func(n *Node) error {
		if onPath[n] {
			return fmt.Errorf("dag: cycle through %q", n.Key())
		}
		if reached[n] {
			return nil
		}
		reached[n] = true
		onPath[n] = true
		for _, c := range n.children {
			if err := dfs(c); err != nil {
				return err
			}
		}
		onPath[n] = false
		return nil
	}
	for _, n := range d.nodes {
		if n.frontier {
			if err := dfs(n); err != nil {
				return err
			}
		}
	}
	for _, n := range d.nodes {
		if !reached[n] {
			return fmt.Errorf("dag: covered node %q unreachable from frontier", n.Key())
		}
	}
	return nil
}

func containsNode(s []*Node, n *Node) bool {
	for _, x := range s {
		if x == n {
			return true
		}
	}
	return false
}
