package provenance

import (
	"strings"
	"testing"
)

// Get and Len read the graph back for the tests; the system only renders
// it (Explain).

// Get returns a copy of the node, or false.
func (g *Graph) Get(id NodeID) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// Len returns the node count.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

func buildChain(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	g := NewGraph()
	docID := g.MustAdd(KindDocument, "Madison, Wisconsin (article)", "", 0)
	exID := g.MustAdd(KindExtraction, "temperature[September]=62.0", "temperature-rule", 0.92, docID)
	fbID := g.MustAdd(KindFeedback, "user alice confirmed", "", 0.9)
	derID := g.MustAdd(KindDerived, "avg temp Mar-Sep = 59.7", "AVG", 0.95, exID, fbID)
	return g, docID, exID, derID
}

func TestAddAndGet(t *testing.T) {
	g, docID, exID, _ := buildChain(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	n, ok := g.Get(exID)
	if !ok || n.Operator != "temperature-rule" || len(n.Inputs) != 1 || n.Inputs[0] != docID {
		t.Fatalf("node: %+v", n)
	}
	if _, ok := g.Get(999); ok {
		t.Fatal("missing node should not resolve")
	}
}

func TestAddRejectsDanglingInput(t *testing.T) {
	g := NewGraph()
	if _, err := g.Add(KindDerived, "x", "op", 0.5, 42); err == nil {
		t.Fatal("dangling input must error")
	}
}

func TestExplainRendering(t *testing.T) {
	g, _, _, derID := buildChain(t)
	text := g.Explain(derID)
	for _, want := range []string{
		"avg temp Mar-Sep", "temperature-rule", "Madison, Wisconsin (article)",
		"user alice confirmed", "conf 0.92", "via AVG",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explanation missing %q:\n%s", want, text)
		}
	}
	// Indentation reflects depth.
	if !strings.Contains(text, "  - [extraction]") {
		t.Fatalf("no indentation:\n%s", text)
	}
}

func TestExplainSharedInputShownOnce(t *testing.T) {
	g := NewGraph()
	doc := g.MustAdd(KindDocument, "doc", "", 0)
	e1 := g.MustAdd(KindExtraction, "e1", "op", 0.9, doc)
	e2 := g.MustAdd(KindExtraction, "e2", "op", 0.9, doc)
	top := g.MustAdd(KindDerived, "top", "join", 0.8, e1, e2)
	text := g.Explain(top)
	if strings.Count(text, "[document] doc") != 2 {
		// The doc appears under both parents, but its own subtree is only
		// expanded once; both references must render.
		t.Fatalf("shared input rendering:\n%s", text)
	}
}

func TestConcurrentAdds(t *testing.T) {
	g := NewGraph()
	root := g.MustAdd(KindDocument, "root", "", 0)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				g.MustAdd(KindExtraction, "e", "op", 0.5, root)
			}
			done <- true
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if g.Len() != 801 {
		t.Fatalf("Len = %d", g.Len())
	}
}
