package rdbms

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"42":    NewInt(42),
		"3.5":   NewFloat(3.5),
		"hi":    NewString("hi"),
		"true":  NewBool(true),
		"false": NewBool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v.Type, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, s := range []string{"INT", "integer", "BIGINT", "float", "REAL", "text", "VARCHAR", "bool"} {
		if _, err := ParseType(s); err != nil {
			t.Errorf("ParseType(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	c, ok := Compare(NewInt(3), NewFloat(3.0))
	if !ok || c != 0 {
		t.Fatalf("3 vs 3.0: c=%d ok=%v", c, ok)
	}
	c, ok = Compare(NewInt(3), NewFloat(3.5))
	if !ok || c != -1 {
		t.Fatalf("3 vs 3.5: c=%d ok=%v", c, ok)
	}
	c, ok = Compare(NewFloat(4.5), NewInt(4))
	if !ok || c != 1 {
		t.Fatalf("4.5 vs 4: c=%d ok=%v", c, ok)
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, ok := Compare(Null(), NewInt(0)); !ok || c != -1 {
		t.Fatal("NULL should sort before values")
	}
	if c, ok := Compare(NewString("a"), Null()); !ok || c != 1 {
		t.Fatal("values should sort after NULL")
	}
	if c, ok := Compare(Null(), Null()); !ok || c != 0 {
		t.Fatal("NULL == NULL for ordering")
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, ok := Compare(NewString("a"), NewInt(1)); ok {
		t.Fatal("string vs int must be incomparable")
	}
	if _, ok := Compare(NewBool(true), NewInt(1)); ok {
		t.Fatal("bool vs int must be incomparable")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if c, _ := Compare(NewString("abc"), NewString("abd")); c != -1 {
		t.Fatal("string compare")
	}
	if c, _ := Compare(NewBool(false), NewBool(true)); c != -1 {
		t.Fatal("false < true")
	}
	if c, _ := Compare(NewBool(true), NewBool(true)); c != 0 {
		t.Fatal("true == true")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	tup := Tuple{NewInt(-5), NewFloat(2.25), NewString("Madison, Wisconsin"), NewBool(true), Null()}
	enc := EncodeTuple(tup)
	dec, err := DecodeTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(tup) {
		t.Fatalf("arity %d != %d", len(dec), len(tup))
	}
	for i := range tup {
		if tup[i].Type != dec[i].Type || !tupleEqual(Tuple{tup[i]}, Tuple{dec[i]}) {
			t.Fatalf("value %d: %v != %v", i, tup[i], dec[i])
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, err := DecodeTuple(nil); err == nil {
		t.Fatal("nil buffer must fail")
	}
	if _, err := DecodeTuple([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("missing value bytes must fail")
	}
	if _, err := DecodeTuple([]byte{255, 255, 255, 255}); err == nil {
		t.Fatal("implausible arity must fail")
	}
}

func TestTupleRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string, fs []float64) bool {
		var tup Tuple
		for _, i := range ints {
			tup = append(tup, NewInt(i))
		}
		for _, s := range strs {
			tup = append(tup, NewString(s))
		}
		for _, fl := range fs {
			tup = append(tup, NewFloat(fl))
		}
		tup = append(tup, Null(), NewBool(true), NewBool(false))
		enc := EncodeTuple(tup)
		if encodedLen(tup) != len(enc) {
			return false
		}
		dec, err := DecodeTuple(enc)
		if err != nil || len(dec) != len(tup) {
			return false
		}
		return tupleEqual(tup, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidateCoerce(t *testing.T) {
	s := TableSchema{Name: "t", Columns: []ColumnDef{
		{Name: "a", Type: TInt}, {Name: "b", Type: TFloat}, {Name: "c", Type: TString},
	}}
	if err := s.Validate(Tuple{NewInt(1), NewFloat(2), NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Tuple{NewInt(1), NewInt(2), NewString("x")}); err != nil {
		t.Fatalf("int into float column should validate: %v", err)
	}
	if err := s.Validate(Tuple{NewInt(1), Null(), Null()}); err != nil {
		t.Fatalf("NULLs should validate: %v", err)
	}
	if err := s.Validate(Tuple{NewString("no"), NewFloat(2), NewString("x")}); err == nil {
		t.Fatal("string into int column must fail")
	}
	if err := s.Validate(Tuple{NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	co := s.Coerce(Tuple{NewInt(1), NewInt(2), NewString("x")})
	if co[1].Type != TFloat || co[1].F != 2 {
		t.Fatalf("Coerce int->float: %v", co[1])
	}
	if co[0].Type != TInt {
		t.Fatal("Coerce must not touch int columns")
	}
}

func TestColIndex(t *testing.T) {
	s := TableSchema{Name: "t", Columns: []ColumnDef{{Name: "x", Type: TInt}, {Name: "y", Type: TInt}}}
	if s.ColIndex("y") != 1 || s.ColIndex("x") != 0 || s.ColIndex("z") != -1 {
		t.Fatal("ColIndex wrong")
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	cat := &catalogData{
		checkpointLSN: 12345,
		checkpointID:  42,
		tables: []catalogTable{
			{
				schema: TableSchema{Name: "cities", Columns: []ColumnDef{
					{Name: "name", Type: TString}, {Name: "pop", Type: TInt},
				}},
				firstPage:    7,
				snapLSN:      12000,
				bornLSN:      17,
				derivedValid: true,
				indexes:      []catalogIndex{{col: "name", firstPage: 11, stamp: 42}},
			},
			{
				schema:    TableSchema{Name: "empty", Columns: []ColumnDef{{Name: "v", Type: TFloat}}},
				firstPage: 9,
			},
		},
	}
	page, err := encodeCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != PageSize {
		t.Fatalf("catalog page size %d", len(page))
	}
	got, err := decodeCatalog(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.checkpointLSN != 12345 || got.checkpointID != 42 || len(got.tables) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if t0 := got.tables[0]; t0.schema.Name != "cities" || t0.firstPage != 7 ||
		t0.snapLSN != 12000 || t0.bornLSN != 17 || !t0.derivedValid {
		t.Fatalf("table 0: %+v", t0)
	}
	idx := got.tables[0].indexes
	if len(idx) != 1 || idx[0].col != "name" || idx[0].firstPage != 11 || idx[0].stamp != 42 {
		t.Fatalf("index entries: %+v", idx)
	}
	if got.tables[1].derivedValid || len(got.tables[1].indexes) != 0 {
		t.Fatalf("table 1 should have no valid derived state or indexes: %+v", got.tables[1])
	}
	if got.tables[1].schema.Columns[0].Type != TFloat {
		t.Fatal("column type lost")
	}
}

func TestCatalogBadMagic(t *testing.T) {
	page := make([]byte, PageSize)
	if _, err := decodeCatalog(page); err == nil {
		t.Fatal("zero page must fail magic check")
	}
}

// TestCatalogOldFormatDiagnosed: a catalog page written by an earlier
// layout (UDB3 carried a content-hash spec per table) is refused with the
// delete-and-regenerate diagnosis rather than misread or "bad magic".
func TestCatalogOldFormatDiagnosed(t *testing.T) {
	for _, v := range []byte{'1', '2', '3'} {
		page, err := encodeCatalog(&catalogData{tables: []catalogTable{{
			schema: TableSchema{Name: "t", Columns: []ColumnDef{{Name: "v", Type: TInt}}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		page[3] = v
		_, err = decodeCatalog(page)
		if err == nil || !strings.Contains(err.Error(), "UDB"+string(v)+" is no longer supported") {
			t.Fatalf("UDB%c page: got %v, want the no-longer-supported diagnosis", v, err)
		}
	}
}
