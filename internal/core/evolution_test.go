package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/uql"
)

func TestSchemaEvolvesAsAttributesArrive(t *testing.T) {
	s, _ := newSystem(t, 8, 0, 0)
	if len(s.Schema.Current().Attributes) != 0 {
		t.Fatal("schema should start empty")
	}
	// Phase 1: only temperatures.
	s.PlanIncremental(context.Background(), "city", []string{"temperature"}, 2)
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	v := s.Schema.Current()
	if len(v.Attributes) != 1 || v.Attributes[0].Name != "temperature" {
		t.Fatalf("after phase 1: %+v", v.Attributes)
	}
	if v.Attributes[0].Type != schema.TypeFloat {
		t.Fatalf("temperature should infer float, got %v", v.Attributes[0].Type)
	}
	// Phase 2: populations arrive later; the schema evolves.
	s.PlanIncremental(context.Background(), "city", []string{"population"}, 2)
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	v = s.Schema.Current()
	if len(v.Attributes) != 2 {
		t.Fatalf("after phase 2: %+v", v.Attributes)
	}
	// History records the growth.
	if len(s.Schema.History()) < 3 {
		t.Fatalf("history: %v", s.Schema.History())
	}
	if s.Stats.Counter("core.schema.attributes") != 2 {
		t.Fatalf("schema counter: %d", s.Stats.Counter("core.schema.attributes"))
	}
}

func TestSchemaEvolvesViaGenerate(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature, founded FROM docs USING city KIND city INTO facts;
		STORE facts INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	attrs := s.Schema.Current().Attributes
	names := map[string]schema.FieldType{}
	for _, a := range attrs {
		names[a.Name] = a.Type
	}
	if names["temperature"] != schema.TypeFloat {
		t.Fatalf("temperature type: %v", names)
	}
	if names["founded"] != schema.TypeInt {
		t.Fatalf("founded type: %v", names)
	}
}

func TestExplainFact(t *testing.T) {
	s, _ := newSystem(t, 5, 0, 0)
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	text, err := s.ExplainFact(context.Background(), "Madison, Wisconsin", "temperature", "September")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"temperature[September]=62.0", "temperature-rule", "Madison, Wisconsin"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explanation missing %q:\n%s", want, text)
		}
	}
	if _, err := s.ExplainFact(context.Background(), "Nowhere", "temperature", "July"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing fact: got %v, want ErrNotFound", err)
	}
}
