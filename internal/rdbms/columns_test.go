package rdbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// refDecodeTuple is DecodeTuple before SplitRecord became the one reader
// of the encoding, kept as FuzzRecordColumns' reference: it decodes each
// value with its own bounds checks and reports the same errors.
func refDecodeTuple(buf []byte) (Tuple, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("rdbms: short tuple header")
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n > 1<<20 {
		return nil, fmt.Errorf("rdbms: implausible tuple arity %d", n)
	}
	out := make(Tuple, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		v, used, err := refDecodeValue(buf[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += used
	}
	return out, nil
}

func refDecodeValue(buf []byte) (Value, int, error) {
	if len(buf) < 1 {
		return Value{}, 0, fmt.Errorf("rdbms: empty value encoding")
	}
	switch Type(buf[0]) {
	case TNull:
		return Null(), 1, nil
	case TInt:
		if len(buf) < 9 {
			return Value{}, 0, fmt.Errorf("rdbms: short int encoding")
		}
		return NewInt(int64(binary.LittleEndian.Uint64(buf[1:9]))), 9, nil
	case TFloat:
		if len(buf) < 9 {
			return Value{}, 0, fmt.Errorf("rdbms: short float encoding")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))), 9, nil
	case TString:
		if len(buf) < 5 {
			return Value{}, 0, fmt.Errorf("rdbms: short string header")
		}
		n := int(binary.LittleEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return Value{}, 0, fmt.Errorf("rdbms: short string body")
		}
		return NewString(string(buf[5 : 5+n])), 5 + n, nil
	case TBool:
		if len(buf) < 2 {
			return Value{}, 0, fmt.Errorf("rdbms: short bool encoding")
		}
		return NewBool(buf[1] == 1), 2, nil
	}
	return Value{}, 0, fmt.Errorf("rdbms: bad type tag %d", buf[0])
}

// sameValue is bit-exact equality of two decoded values (NaN included).
func sameValue(a, b Value) bool {
	return a.Type == b.Type && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) &&
		a.S == b.S && a.B == b.B
}

// FuzzRecordColumns: SplitRecord, and DecodeTuple built on it, agree
// with the reference decoder on arbitrary bytes. Both accept or both
// reject, with the same error; the fields decode to the reference values
// in order; and their in-place readings Str and Float are Value.S's and
// Value.F's, the readings browse's record consumer relies on.
func FuzzRecordColumns(f *testing.F) {
	for _, rec := range [][]byte{
		EncodeTuple(Tuple{NewString("Madison"), NewString("temperature"), NewString("July"), NewString("73"), NewFloat(73), NewFloat(0.9)}),
		EncodeTuple(Tuple{Null(), NewInt(7), NewBool(true), NewString(""), Null(), NewInt(3)}),
		EncodeTuple(Tuple{NewFloat(math.NaN()), NewFloat(math.Inf(-1)), NewBool(false)}),
		EncodeTuple(Tuple{}),
		{1, 0, 0, 0, byte(TString), 9, 0, 0, 0, 'a'},         // string body overruns
		{1, 0, 0, 0, byte(TString), 255, 255, 255, 255, 'a'}, // string length near 2^32
		{1, 0, 0, 0, byte(TInt), 1, 2},                       // short int
		{1, 0, 0, 0, byte(TFloat)},                           // short float
		{1, 0, 0, 0, byte(TBool)},                            // short bool
		{1, 0, 0, 0, byte(TString), 1, 0},                    // short string header
		{2, 0, 0, 0, byte(TNull)},                            // a value missing
		{1, 0, 0, 0, 7},                                      // bad type tag
		{0, 0, 0, 0, 1, 2, 3},                                // trailing bytes
		{4, 0, 0},                                            // short header
		{255, 255, 255, 0},                                   // implausible arity
	} {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		want, werr := refDecodeTuple(rec)
		got, gerr := DecodeTuple(rec)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("DecodeTuple err %v, reference %v: %x", gerr, werr, rec)
		}
		fields, ferr := SplitRecord(rec, nil)
		if (ferr == nil) != (werr == nil) || (ferr != nil && ferr.Error() != werr.Error()) {
			t.Fatalf("SplitRecord err %v, reference %v: %x", ferr, werr, rec)
		}
		if werr != nil {
			return
		}
		if len(got) != len(want) || len(fields) != len(want) {
			t.Fatalf("decoded %d values, split %d fields, reference %d: %x", len(got), len(fields), len(want), rec)
		}
		for i, f := range fields {
			v := f.Value()
			if !sameValue(got[i], want[i]) || !sameValue(v, want[i]) {
				t.Fatalf("value %d: decoded %v, field %v, reference %v", i, got[i], v, want[i])
			}
			if s := f.Str(); string(s) != v.S || (s == nil) != (v.Type != TString) {
				t.Fatalf("field %d: Str %q, value %v", i, s, v)
			}
			if x := f.Float(); math.Float64bits(x) != math.Float64bits(v.F) {
				t.Fatalf("field %d: Float %v, value %v", i, x, v)
			}
		}
	})
}
