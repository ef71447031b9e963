// Package provenance is the explanation manager's renderer (Figure 1,
// Part V): a lineage DAG records which operator produced a datum from
// which inputs, and Explain renders the walk back to the source documents
// as human-readable text — "explain why the system believes Madison's
// September temperature is 62". The system builds one small graph per
// explained fact from the fact's re-derivation; nothing keeps a graph
// between requests.
package provenance

import (
	"fmt"
	"strings"
	"sync"
)

// NodeID identifies a lineage node.
type NodeID int64

// NodeKind classifies lineage nodes.
type NodeKind string

const (
	// KindDocument is a source document.
	KindDocument NodeKind = "document"
	// KindExtraction is a field produced by an IE operator.
	KindExtraction NodeKind = "extraction"
	// KindIntegration is a merge/match produced by an II operator.
	KindIntegration NodeKind = "integration"
	// KindFeedback is a human answer.
	KindFeedback NodeKind = "feedback"
	// KindDerived is any downstream computed datum (tuple, aggregate).
	KindDerived NodeKind = "derived"
)

// Node is one lineage DAG node.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Label    string  // human-readable description
	Operator string  // producing operator, empty for sources
	Conf     float64 // confidence at production time (0 if n/a)
	Inputs   []NodeID
}

// Graph is an append-only lineage DAG. Safe for concurrent use.
type Graph struct {
	mu    sync.RWMutex
	nodes map[NodeID]*Node
	next  NodeID
}

// NewGraph returns an empty lineage graph.
func NewGraph() *Graph { return &Graph{nodes: map[NodeID]*Node{}} }

// Add records a node; inputs must already exist. It returns the new id.
func (g *Graph) Add(kind NodeKind, label, operator string, conf float64, inputs ...NodeID) (NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, in := range inputs {
		if _, ok := g.nodes[in]; !ok {
			return 0, fmt.Errorf("provenance: unknown input node %d", in)
		}
	}
	g.next++
	id := g.next
	g.nodes[id] = &Node{
		ID: id, Kind: kind, Label: label, Operator: operator, Conf: conf,
		Inputs: append([]NodeID(nil), inputs...),
	}
	return id, nil
}

// MustAdd is Add that panics on a dangling input; for construction code
// whose inputs are by construction present.
func (g *Graph) MustAdd(kind NodeKind, label, operator string, conf float64, inputs ...NodeID) NodeID {
	id, err := g.Add(kind, label, operator, conf, inputs...)
	if err != nil {
		panic(err)
	}
	return id
}

// Explain renders a human-readable, indented derivation of id — the
// explanation manager's output.
func (g *Graph) Explain(id NodeID) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var b strings.Builder
	seen := map[NodeID]bool{}
	var render func(NodeID, int)
	render = func(cur NodeID, depth int) {
		n, ok := g.nodes[cur]
		if !ok {
			return
		}
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s- [%s] %s", indent, n.Kind, n.Label)
		if n.Operator != "" {
			line += fmt.Sprintf(" (via %s", n.Operator)
			if n.Conf > 0 {
				line += fmt.Sprintf(", conf %.2f", n.Conf)
			}
			line += ")"
		} else if n.Conf > 0 {
			line += fmt.Sprintf(" (conf %.2f)", n.Conf)
		}
		b.WriteString(line + "\n")
		if seen[cur] {
			if len(n.Inputs) > 0 {
				b.WriteString(indent + "  (shown above)\n")
			}
			return
		}
		seen[cur] = true
		for _, in := range n.Inputs {
			render(in, depth+1)
		}
	}
	render(id, 0)
	return b.String()
}
