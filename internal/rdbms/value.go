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
	if len(buf) < 1 {
		return Value{}, 0, fmt.Errorf("rdbms: empty value encoding")
	}
	t := Type(buf[0])
	switch t {
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

// Tuple is an ordered list of values conforming to a table schema.
type Tuple []Value

// EncodeTuple serializes a tuple.
func EncodeTuple(t Tuple) []byte {
	var buf []byte
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(t)))
	buf = append(buf, hdr[:]...)
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
		v, used, err := decodeValue(buf[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += used
	}
	return out, nil
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
