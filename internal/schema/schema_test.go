package schema

import (
	"testing"
)

func TestEvolutionLifecycle(t *testing.T) {
	e := NewEvolver("cities")
	if e.Name() != "cities" || e.Current().Num != 1 {
		t.Fatalf("fresh evolver: %v", e.Current())
	}
	v2, err := e.AddAttribute("temperature", TypeFloat)
	if err != nil || v2.Num != 2 || len(v2.Attributes) != 1 {
		t.Fatalf("add: %v %v", v2, err)
	}
	if _, err := e.AddAttribute("temperature", TypeFloat); err == nil {
		t.Fatal("duplicate add must fail")
	}
	v3, err := e.AddAttribute("location", TypeString)
	if err != nil || v3.Num != 3 {
		t.Fatalf("add 2: %v %v", v3, err)
	}
	// Integration discovered "location" should be "address".
	v4, err := e.RenameAttribute("location", "address")
	if err != nil || v4.Num != 4 {
		t.Fatalf("rename: %v %v", v4, err)
	}
	if _, err := e.RenameAttribute("ghost", "x"); err == nil {
		t.Fatal("rename of missing must fail")
	}
	if _, err := e.RenameAttribute("temperature", "address"); err == nil {
		t.Fatal("rename onto existing must fail")
	}
	if got := e.Canonical("location"); got != "address" {
		t.Fatalf("Canonical(location) = %q", got)
	}
	if got := e.Canonical("never-renamed"); got != "never-renamed" {
		t.Fatalf("Canonical passthrough = %q", got)
	}
	// Drop.
	v5, err := e.DropAttribute("temperature")
	if err != nil || v5.Num != 5 || len(v5.Attributes) != 1 {
		t.Fatalf("drop: %v %v", v5, err)
	}
	if _, err := e.DropAttribute("temperature"); err == nil {
		t.Fatal("double drop must fail")
	}
	// History intact.
	hist := e.History()
	if len(hist) != 5 {
		t.Fatalf("history has %d versions", len(hist))
	}
	if v := hist[2]; v.Num != 3 || len(v.Attributes) != 2 {
		t.Fatalf("version 3: %v", v)
	}
	if c := hist[3].Change; c != "rename location -> address" {
		t.Fatalf("version 4's change: %q", c)
	}
}

func TestRenameChain(t *testing.T) {
	e := NewEvolver("t")
	e.AddAttribute("a", TypeString)
	e.RenameAttribute("a", "b")
	e.RenameAttribute("b", "c")
	if got := e.Canonical("a"); got != "c" {
		t.Fatalf("chained canonical = %q", got)
	}
}

func TestMigrate(t *testing.T) {
	e := NewEvolver("cities")
	e.AddAttribute("location", TypeString)
	e.AddAttribute("population", TypeInt)
	e.AddAttribute("junk", TypeString)
	e.RenameAttribute("location", "address")
	e.DropAttribute("junk")

	rec := Record{"location": "Madison, WI", "population": "233209", "junk": "zzz"}
	out, errs := e.Migrate(rec)
	if len(errs) != 0 {
		t.Fatalf("migrate errors: %v", errs)
	}
	if out["address"] != "Madison, WI" {
		t.Fatalf("rename not applied: %v", out)
	}
	if _, ok := out["junk"]; ok {
		t.Fatal("dropped attribute survived")
	}
	if out["population"] != "233209" {
		t.Fatalf("population: %v", out)
	}
	// Type violation reported but value preserved.
	bad, errs := e.Migrate(Record{"population": "many"})
	if len(errs) != 1 {
		t.Fatalf("expected type error, got %v", errs)
	}
	if bad["population"] != "many" {
		t.Fatal("value should be preserved for HI review")
	}
}

func TestInferType(t *testing.T) {
	if got := InferType([]string{"1", "42", "-7"}); got != TypeInt {
		t.Fatalf("int inference: %v", got)
	}
	if got := InferType([]string{"1.5", "2", "-0.25"}); got != TypeFloat {
		t.Fatalf("float inference: %v", got)
	}
	if got := InferType([]string{"1", "hello"}); got != TypeString {
		t.Fatalf("string inference: %v", got)
	}
	if got := InferType(nil); got != TypeString {
		t.Fatalf("empty inference: %v", got)
	}
}

func TestAddedInVersions(t *testing.T) {
	e := NewEvolver("t")
	e.AddAttribute("a", TypeString)
	e.AddAttribute("b", TypeInt)
	cur := e.Current()
	if cur.Attributes[0].AddedIn != 2 || cur.Attributes[1].AddedIn != 3 {
		t.Fatalf("AddedIn: %+v", cur.Attributes)
	}
}
