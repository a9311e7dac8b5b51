package dag

// Test-only views of the poset's edges and refcounts, for the property
// battery in package dag_test.

// Refs returns the total live reference count across all nodes.
func (d *DAG) Refs() int { return d.refs }

// Refs returns the node's live reference count.
func (n *Node) Refs() int { return n.refs }

// Children returns the node's covered children (internal storage).
func (n *Node) Children() []*Node { return n.children }
