package uql

import (
	"testing"
	"testing/quick"

	"repro/internal/filestore"
)

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	r := Row{
		Entity: "Madison, Wisconsin", Attribute: "temperature",
		Qualifier: "September", Value: "62.0", Conf: 0.92,
	}
	got, err := DecodeRow(EncodeRow(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(e, a, q, v string, conf float64) bool {
		r := Row{Entity: e, Attribute: a, Qualifier: q, Value: v, Conf: conf}
		got, err := DecodeRow(EncodeRow(r))
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowErrors(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {5, 0, 0, 0, 'a'}, append(EncodeRow(Row{}), 0xFF)} {
		if _, err := DecodeRow(b); err == nil {
			t.Errorf("DecodeRow(%v) should fail", b)
		}
	}
}

func TestSpillAndLoadRelation(t *testing.T) {
	env := NewEnv()
	env.Relations["facts"] = []Row{
		{Entity: "a", Attribute: "x", Value: "1", Conf: 0.5},
		{Entity: "b", Attribute: "y", Qualifier: "q", Value: "2", Conf: 0.9},
	}
	store := filestore.New(256)
	n, err := env.SpillRelation("facts", store)
	if err != nil || n != 2 {
		t.Fatalf("spill: %d %v", n, err)
	}
	if store.Count() != 2 {
		t.Fatalf("store count: %d", store.Count())
	}
	// Load into a fresh environment.
	env2 := NewEnv()
	n, err = env2.LoadSpilled("restored", store)
	if err != nil || n != 2 {
		t.Fatalf("load: %d %v", n, err)
	}
	got := env2.Relations["restored"]
	for i, r := range env.Relations["facts"] {
		if got[i] != r {
			t.Fatalf("row %d: %+v != %+v", i, got[i], r)
		}
	}
	// Loading again appends.
	if _, err := env2.LoadSpilled("restored", store); err != nil {
		t.Fatal(err)
	}
	if len(env2.Relations["restored"]) != 4 {
		t.Fatalf("append load: %d rows", len(env2.Relations["restored"]))
	}
	// Unknown relation errors.
	if _, err := env.SpillRelation("ghost", store); err == nil {
		t.Fatal("spill of missing relation should error")
	}
}

func TestSpillSurvivesPersistence(t *testing.T) {
	dir := t.TempDir()
	env := NewEnv()
	env.Relations["r"] = []Row{{Entity: "e", Attribute: "a", Value: "v", Conf: 0.7}}
	store := filestore.New(128)
	if _, err := env.SpillRelation("r", store); err != nil {
		t.Fatal(err)
	}
	if err := store.Persist(dir); err != nil {
		t.Fatal(err)
	}
	re, err := filestore.Open(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	env2 := NewEnv()
	n, err := env2.LoadSpilled("r", re)
	if err != nil || n != 1 {
		t.Fatalf("load after persist: %d %v", n, err)
	}
	if env2.Relations["r"][0].Value != "v" {
		t.Fatalf("row lost: %+v", env2.Relations["r"])
	}
}
