package browse

import "testing"

func sampleRows() []Row {
	return []Row{
		{Entity: "Madison, Wisconsin", Attribute: "temperature", Qualifier: "July", Value: "73"},
		{Entity: "Madison, Wisconsin", Attribute: "temperature", Qualifier: "January", Value: "19"},
		{Entity: "Madison, Wisconsin", Attribute: "population", Value: "233209"},
		{Entity: "Chicago, Illinois", Attribute: "temperature", Qualifier: "July", Value: "75"},
		{Entity: "Chicago, Illinois", Attribute: "population", Value: "2746388"},
		{Entity: "Chicago, Illinois", Attribute: "motto", Value: "Urbs in Horto"},
	}
}

func TestFacets(t *testing.T) {
	b := New(sampleRows())
	facets := b.Facets()
	if len(facets) != 3 {
		t.Fatalf("facets: %v", facets)
	}
	var entity Facet
	for _, f := range facets {
		if f.Name == "entity" {
			entity = f
		}
	}
	if len(entity.Values) != 2 || entity.Values[0].Count != 3 {
		t.Fatalf("entity facet: %+v", entity)
	}
	// Tie on count sorts by value: Chicago before Madison.
	if entity.Values[0].Value != "Chicago, Illinois" {
		t.Fatalf("facet order: %+v", entity.Values)
	}
}

func TestRefineAndBack(t *testing.T) {
	b := New(sampleRows())
	if err := b.Refine("entity", "Madison, Wisconsin"); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Rows()); got != 3 {
		t.Fatalf("after entity refine: %d rows", got)
	}
	if err := b.Refine("attribute", "temperature"); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Rows()); got != 2 {
		t.Fatalf("after attribute refine: %d rows", got)
	}
	if b.Path() != "entity=Madison, Wisconsin > attribute=temperature" {
		t.Fatalf("path: %q", b.Path())
	}
	// Facets recompute under filters.
	for _, f := range b.Facets() {
		if f.Name == "qualifier" && len(f.Values) != 2 {
			t.Fatalf("qualifier facet under filter: %+v", f)
		}
	}
	if !b.Back() {
		t.Fatal("Back failed")
	}
	if got := len(b.Rows()); got != 3 {
		t.Fatalf("after back: %d rows", got)
	}
	b.Back()
	if b.Back() {
		t.Fatal("Back on empty stack should be false")
	}
	if err := b.Refine("bogus", "x"); err == nil {
		t.Fatal("unknown facet should error")
	}
}
