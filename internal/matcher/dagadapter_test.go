package matcher_test

import (
	"fmt"
	"sync"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/cover/dag"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
)

// dagEngine is a test-local Matcher that fronts a core engine with the
// covering poset of internal/cover/dag, mirroring the broker's
// Aggregate wiring: only frontier (uncovered-maximal) filters occupy
// engine entries, covered subscriptions hang off poset nodes and are
// re-evaluated during the post-match frontier walk. Registering it in
// engines() makes the whole contract suite exercise the aggregation
// path: ID stability, fresh-slice aliasing and bookkeeping.
type dagEngine struct {
	mu   sync.Mutex
	eng  matcher.Matcher
	d    *dag.DAG
	next matcher.SubID
	subs map[matcher.SubID]*dag.Node // live subscription -> its poset node

	engID     map[*dag.Node]matcher.SubID // frontier node -> engine entry
	nodeByEng map[matcher.SubID]*dag.Node // engine entry -> frontier node
}

// dagMembers is the per-node subscriber set stored in Node.Data.
type dagMembers map[matcher.SubID]bool

func newDAGEngine() *dagEngine {
	return &dagEngine{
		eng:       core.New(predicate.NewRegistry(), index.New(), core.Options{}),
		d:         dag.New(),
		subs:      make(map[matcher.SubID]*dag.Node),
		engID:     make(map[*dag.Node]matcher.SubID),
		nodeByEng: make(map[matcher.SubID]*dag.Node),
	}
}

func (m *dagEngine) Name() string { return "dag-aggregated" }

func (m *dagEngine) members(n *dag.Node) dagMembers {
	ms, ok := n.Data.(dagMembers)
	if !ok {
		ms = make(dagMembers)
		n.Data = ms
	}
	return ms
}

func (m *dagEngine) Subscribe(expr boolexpr.Expr) (matcher.SubID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res := m.d.Add(expr)
	if res.New && res.Frontier {
		eid, err := m.eng.Subscribe(expr)
		if err != nil {
			res.Node.Data = nil
			m.d.Release(res.Node)
			return 0, err
		}
		m.engID[res.Node] = eid
		m.nodeByEng[eid] = res.Node
	}
	// Subscribe-before-retract: the demoted entries' subscribers stay
	// reachable through the new node's subtree.
	for _, dem := range res.Demoted {
		eid := m.engID[dem]
		if err := m.eng.Unsubscribe(eid); err != nil {
			return 0, err
		}
		delete(m.engID, dem)
		delete(m.nodeByEng, eid)
	}
	m.next++
	id := m.next
	m.members(res.Node)[id] = true
	m.subs[id] = res.Node
	return id, nil
}

func (m *dagEngine) Unsubscribe(id matcher.SubID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.subs[id]
	if !ok {
		return fmt.Errorf("dag-aggregated: %w: %d", matcher.ErrUnknownSubscription, id)
	}
	delete(m.subs, id)
	delete(m.members(n), id)
	rel := m.d.Release(n)
	if !rel.Died {
		return nil
	}
	// Promote orphaned descendants into the engine before retracting the
	// dying entry, so no covered subscriber is ever unreachable.
	for _, p := range rel.Promoted {
		eid, err := m.eng.Subscribe(p.Expr())
		if err != nil {
			return err
		}
		m.engID[p] = eid
		m.nodeByEng[eid] = p
	}
	if rel.WasFrontier {
		eid := m.engID[n]
		delete(m.engID, n)
		delete(m.nodeByEng, eid)
		if err := m.eng.Unsubscribe(eid); err != nil {
			return err
		}
	}
	n.Data = nil
	return nil
}

// collect appends the subscriber IDs of n (already known to match) and of
// every covered descendant that the event also fulfils. A failing node
// soundly prunes its subtree: descendants match subsets of their parents.
func (m *dagEngine) collect(n *dag.Node, ev event.Event, visited map[*dag.Node]bool, out []matcher.SubID) []matcher.SubID {
	if visited[n] {
		return out
	}
	visited[n] = true
	if ms, ok := n.Data.(dagMembers); ok {
		for id := range ms {
			out = append(out, id)
		}
	}
	for _, c := range n.Children() {
		if visited[c] || !c.Expr().Eval(ev) {
			if !visited[c] {
				visited[c] = true
			}
			continue
		}
		out = m.collect(c, ev, visited, out)
	}
	return out
}

func (m *dagEngine) matchLocked(ev event.Event) []matcher.SubID {
	out := make([]matcher.SubID, 0, 4)
	visited := make(map[*dag.Node]bool)
	for _, eid := range m.eng.Match(ev) {
		out = m.collect(m.nodeByEng[eid], ev, visited, out)
	}
	return out
}

func (m *dagEngine) Match(ev event.Event) []matcher.SubID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matchLocked(ev)
}

// MatchPredicates cannot be supported by the aggregation wrapper: covered
// descendants are decided by re-evaluating the event, and a fulfilled-
// predicate set carries no event. No contract test exercises it on the
// engines() map; failing loudly here beats returning an unsound subset.
func (m *dagEngine) MatchPredicates([]predicate.ID) []matcher.SubID {
	panic("dag-aggregated test adapter: MatchPredicates unsupported (descendant evaluation needs the event)")
}

func (m *dagEngine) NumSubscriptions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// NumUnits reports the engine-resident units — the covering frontier.
// That it can be far below NumSubscriptions is the aggregation claim
// itself; the contract suite only requires NumUnits ≥ NumSubscriptions
// for a single registered subscription, which trivially holds.
func (m *dagEngine) NumUnits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.NumUnits()
}

func (m *dagEngine) MemBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.MemBytes()
}
