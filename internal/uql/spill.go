package uql

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/filestore"
)

// Spill support: the paper's storage layer keeps intermediate structured
// data on the file system because the system executes only sequential
// reads and writes over it. SpillRelation writes a relation's rows to an
// append-only segment store; LoadSpilled streams them back.

// EncodeRow serializes a row for the segment store.
func EncodeRow(r Row) []byte {
	buf := make([]byte, 0, 64)
	buf = appendLenString(buf, r.Entity)
	buf = appendLenString(buf, r.Attribute)
	buf = appendLenString(buf, r.Qualifier)
	buf = appendLenString(buf, r.Value)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(r.Conf))
	return append(buf, tmp[:]...)
}

// DecodeRow parses a row serialized by EncodeRow.
func DecodeRow(b []byte) (Row, error) {
	var r Row
	var err error
	if r.Entity, b, err = readLenString(b); err != nil {
		return r, err
	}
	if r.Attribute, b, err = readLenString(b); err != nil {
		return r, err
	}
	if r.Qualifier, b, err = readLenString(b); err != nil {
		return r, err
	}
	if r.Value, b, err = readLenString(b); err != nil {
		return r, err
	}
	if len(b) != 8 {
		return r, fmt.Errorf("uql: row encoding has %d trailing bytes, want 8", len(b))
	}
	r.Conf = math.Float64frombits(binary.LittleEndian.Uint64(b))
	return r, nil
}

func appendLenString(buf []byte, s string) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

func readLenString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("uql: short length prefix")
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if len(b) < 4+n {
		return "", nil, fmt.Errorf("uql: short string payload")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// SpillRelation writes a relation's rows to the segment store and returns
// the number of records appended.
func (e *Env) SpillRelation(name string, store *filestore.Store) (int, error) {
	rows, ok := e.Relations[name]
	if !ok {
		return 0, fmt.Errorf("uql: unknown relation %q", name)
	}
	for _, r := range rows {
		if _, err := store.Append(EncodeRow(r)); err != nil {
			return 0, err
		}
	}
	e.Stats.Inc("uql.spill.rows", int64(len(rows)))
	return len(rows), nil
}

// LoadSpilled streams every record in the store into the named relation
// (appending to any existing rows) and returns the number loaded.
func (e *Env) LoadSpilled(name string, store *filestore.Store) (int, error) {
	var rows []Row
	var decodeErr error
	err := store.Scan(func(_ filestore.RecordID, payload []byte) bool {
		r, err := DecodeRow(payload)
		if err != nil {
			decodeErr = err
			return false
		}
		rows = append(rows, r)
		return true
	})
	if err != nil {
		return 0, err
	}
	if decodeErr != nil {
		return 0, decodeErr
	}
	e.Relations[name] = append(e.Relations[name], rows...)
	e.Stats.Inc("uql.spill.loaded", int64(len(rows)))
	return len(rows), nil
}
