// Package rdbms is a from-scratch miniature relational engine: slotted
// pages, a buffer pool, heap files, B+tree indexes, a write-ahead log with
// crash recovery, strict two-phase-locking transactions, and a SQL subset
// (DDL, INSERT/UPDATE/DELETE, SELECT with filters, joins, grouping,
// ordering). It is the "RDBMS" box in the paper's storage layer: the
// final extracted structure lives here so that many users can edit it
// concurrently with correct concurrency control.
package rdbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type uint8

const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	case TNull:
		return "NULL"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType parses a SQL type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return TFloat, nil
	case "STRING", "TEXT", "VARCHAR":
		return TString, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	}
	return TNull, fmt.Errorf("rdbms: unknown type %q", s)
}

// Value is a dynamically typed SQL value.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
	B    bool
}

// Convenience constructors.
func NewInt(i int64) Value     { return Value{Type: TInt, I: i} }
func NewFloat(f float64) Value { return Value{Type: TFloat, F: f} }
func NewString(s string) Value { return Value{Type: TString, S: s} }
func NewBool(b bool) Value     { return Value{Type: TBool, B: b} }
func Null() Value              { return Value{Type: TNull} }
func (v Value) IsNull() bool   { return v.Type == TNull }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	}
	return 0, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare by value across TInt/TFloat; otherwise types must match.
// It returns -1, 0, or +1, and false when the values are incomparable.
func Compare(a, b Value) (int, bool) {
	if a.Type == TNull || b.Type == TNull {
		switch {
		case a.Type == TNull && b.Type == TNull:
			return 0, true
		case a.Type == TNull:
			return -1, true
		default:
			return 1, true
		}
	}
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	if a.Type != b.Type {
		return 0, false
	}
	switch a.Type {
	case TString:
		return strings.Compare(a.S, b.S), true
	case TBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// Equal reports comparable equality.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// encodeValue appends a self-describing encoding of v to buf.
func encodeValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TNull:
	case TInt:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
		buf = append(buf, tmp[:]...)
	case TFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		buf = append(buf, tmp[:]...)
	case TString:
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(v.S)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, v.S...)
	case TBool:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// decodeValue reads one value from buf, returning it and the bytes consumed.
func decodeValue(buf []byte) (Value, int, error) {
	n := valueLen(buf)
	if n == 0 {
		return Value{}, 0, valueErr(buf)
	}
	return valueOf(buf[:n]), n, nil
}

// valueLen returns the length, tag included, of the encoded value that
// starts buf, or 0 if it is malformed (valueErr says how).
func valueLen(buf []byte) int {
	if len(buf) == 0 {
		return 0
	}
	n := 0
	switch Type(buf[0]) {
	case TNull:
		n = 1
	case TInt, TFloat:
		n = 9
	case TString:
		if len(buf) < 5 || uint64(binary.LittleEndian.Uint32(buf[1:5])) > uint64(len(buf)-5) {
			return 0
		}
		return 5 + int(binary.LittleEndian.Uint32(buf[1:5]))
	case TBool:
		n = 2
	}
	if n > len(buf) {
		return 0
	}
	return n
}

// valueErr describes why valueLen refused buf.
func valueErr(buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("rdbms: empty value encoding")
	}
	switch Type(buf[0]) {
	case TInt:
		return fmt.Errorf("rdbms: short int encoding")
	case TFloat:
		return fmt.Errorf("rdbms: short float encoding")
	case TString:
		if len(buf) < 5 {
			return fmt.Errorf("rdbms: short string header")
		}
		return fmt.Errorf("rdbms: short string body")
	case TBool:
		return fmt.Errorf("rdbms: short bool encoding")
	}
	return fmt.Errorf("rdbms: bad type tag %d", buf[0])
}

// valueOf decodes one validated value encoding.
func valueOf(enc []byte) Value {
	switch Type(enc[0]) {
	case TInt:
		return Value{Type: TInt, I: int64(binary.LittleEndian.Uint64(enc[1:]))}
	case TFloat:
		return Value{Type: TFloat, F: math.Float64frombits(binary.LittleEndian.Uint64(enc[1:]))}
	case TString:
		return Value{Type: TString, S: string(enc[5:])}
	case TBool:
		return Value{Type: TBool, B: enc[1] == 1}
	}
	return Value{} // NULL
}

// Tuple is an ordered list of values conforming to a table schema.
type Tuple []Value

// EncodeTuple serializes a tuple.
func EncodeTuple(t Tuple) []byte { return appendTuple(nil, t) }

// appendTuple appends t's encoding to buf.
func appendTuple(buf []byte, t Tuple) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t)))
	for _, v := range t {
		buf = encodeValue(buf, v)
	}
	return buf
}

// encodedLen returns len(EncodeTuple(t)) without encoding.
func encodedLen(t Tuple) int {
	n := 4
	for _, v := range t {
		n++ // type tag
		switch v.Type {
		case TInt, TFloat:
			n += 8
		case TString:
			n += 4 + len(v.S)
		case TBool:
			n++
		}
	}
	return n
}

// DecodeTuple parses a tuple serialized by EncodeTuple.
func DecodeTuple(buf []byte) (Tuple, error) {
	var scratch [16]Field
	fields, err := SplitRecord(buf, scratch[:0])
	if err != nil {
		return nil, err
	}
	out := make(Tuple, len(fields))
	for i, f := range fields {
		out[i] = f.Value()
	}
	return out, nil
}

// Field is one value of an encoded record, read in place: its encoding,
// type tag first, aliasing the record.
type Field []byte

// SplitRecord is the one reader of the record encoding (EncodeTuple's
// format): DecodeTuple decodes the fields it returns, the encoded matcher
// decides its conjuncts on them, and ScanRecords' consumers read their
// columns through them without decoding the row. It validates rec exactly
// as DecodeTuple does, reporting the same error, and appends each value's
// Field to fields in column order.
func SplitRecord(rec []byte, fields []Field) ([]Field, error) {
	if len(rec) < 4 || binary.LittleEndian.Uint32(rec[:4]) > 1<<20 {
		return fields, headerErr(rec)
	}
	n := int(binary.LittleEndian.Uint32(rec[:4]))
	off := 4
	for i := 0; i < n; i++ {
		w := valueLen(rec[off:])
		if w == 0 {
			return fields, valueErr(rec[off:])
		}
		fields = append(fields, Field(rec[off:off+w]))
		off += w
	}
	return fields, nil
}

// headerErr describes why SplitRecord refused rec's header.
func headerErr(rec []byte) error {
	if len(rec) < 4 {
		return fmt.Errorf("rdbms: short tuple header")
	}
	return fmt.Errorf("rdbms: implausible tuple arity %d", binary.LittleEndian.Uint32(rec[:4]))
}

// Value decodes the value.
func (f Field) Value() Value { return valueOf(f) }

// Str returns the value's string bytes, aliasing the record, or nil if it
// is not a string: Value.S's reading without the copy.
func (f Field) Str() []byte {
	if Type(f[0]) != TString {
		return nil
	}
	return f[5:]
}

// Float returns the value if it is a float, else 0: Value.F's reading.
func (f Field) Float() float64 {
	if Type(f[0]) != TFloat {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(f[1:9]))
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
