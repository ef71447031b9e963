package rdbms

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// ColumnDef describes one column.
type ColumnDef struct {
	Name string
	Type Type
}

// TableSchema is a table's name and ordered columns.
type TableSchema struct {
	Name    string
	Columns []ColumnDef
}

// ColIndex returns the position of the named column, or -1.
func (s *TableSchema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that t conforms to the schema (arity and types; NULL is
// allowed in any column).
func (s *TableSchema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("rdbms: tuple arity %d != schema arity %d for %s", len(t), len(s.Columns), s.Name)
	}
	for i, v := range t {
		if v.Type == TNull {
			continue
		}
		want := s.Columns[i].Type
		if v.Type == want {
			continue
		}
		// Allow int into float columns.
		if want == TFloat && v.Type == TInt {
			continue
		}
		return fmt.Errorf("rdbms: column %s expects %s, got %s", s.Columns[i].Name, want, v.Type)
	}
	return nil
}

// Coerce converts tuple values to the schema's declared types where a
// lossless conversion exists (int -> float).
func (s *TableSchema) Coerce(t Tuple) Tuple {
	out := t.Clone()
	for i := range out {
		if i < len(s.Columns) && s.Columns[i].Type == TFloat && out[i].Type == TInt {
			out[i] = NewFloat(float64(out[i].I))
		}
	}
	return out
}

// Table is a named heap with optional per-column indexes.
type Table struct {
	Schema  TableSchema
	Heap    *HeapFile
	Indexes map[string]*BTree // column name -> index

	// idx tracks each index's on-disk checkpoint chain (see
	// idxcheckpoint.go): where the serialized B+tree lives, the
	// checkpoint stamp it carries, and the tree's mutation count when it
	// was last written — unchanged indexes skip re-serialization.
	idx map[string]*idxPersist

	// Fuzzy-checkpoint consistency bookkeeping. mut counts every heap
	// mutation applied through a transaction (including abort
	// compensations); catMut is mut's value at the last CONSISTENT
	// derived-state capture — a checkpoint that serialized this table's
	// index chains while no transaction was active, at log position
	// snapLSN. mut == catMut therefore means "the persisted chains still
	// describe this table exactly as of snapLSN, and every later record
	// for it in the log is >= snapLSN" — the condition under which a
	// crash recovery may bulk-load the chains and delta-adjust them from
	// the WAL tail. A fuzzy checkpoint taken while the table is
	// mid-change instead marks the persisted state invalid
	// (derivedValid=false, chain stamps bumped), and recovery falls back
	// to rebuilding by scan.
	mut    atomic.Int64
	catMut int64
	// snapLSN / derivedValid are what the catalog persists for this
	// table: the log position of the last consistent capture, and whether
	// that capture is trustworthy.
	snapLSN      LSN
	derivedValid bool

	// bornLSN is the log position at which this table incarnation was
	// created (persisted in the catalog). Recovery ignores any WAL record
	// for this table name with an older LSN: with non-quiescing
	// checkpoints the log tail can outlive a DROP TABLE + CREATE TABLE of
	// the same name (a long-running transaction holds the truncation
	// horizon back), and without the fence the old incarnation's records
	// would replay into — and adopt foreign pages into — the new table.
	bornLSN LSN
}

// noteMutation records that a transaction mutated this table's heap (and
// therefore its indexes).
func (t *Table) noteMutation() { t.mut.Add(1) }

// idxPersist is one index's checkpoint-chain bookkeeping.
type idxPersist struct {
	firstPage PageID // head of the serialized chain (InvalidPage: none)
	stamp     uint64 // checkpointID written into the chain header
	savedMut  int64  // BTree.Mutations() at last serialize/load; -1 forces a rewrite
}

// idxState returns (creating if needed) the persistence state for col.
func (t *Table) idxState(col string) *idxPersist {
	if t.idx == nil {
		t.idx = map[string]*idxPersist{}
	}
	ip, ok := t.idx[col]
	if !ok {
		ip = &idxPersist{firstPage: InvalidPage, savedMut: -1}
		t.idx[col] = ip
	}
	return ip
}

// catalog page layout (page 0):
//   magic "UDB4" | checkpointLSN u64 | checkpointID u64 | numTables u32 |
//   per table: name | ncols u32 | (colName, typeByte)* | firstPage u32 |
//              snapLSN u64 | bornLSN u64 |
//              flags u8 (bit0: derived state valid) |
//              nIndexes u32 | (indexColName | chainFirstPage u32 | stamp u64)*
//
// checkpointLSN is the recovery replay origin (the checkpoint's
// truncation horizon); snapLSN is the log position the table's persisted
// derived state (index chains) was captured at, and the
// valid flag says whether that capture was consistent (taken with no
// transaction active on the table) — see Table.catMut.

var catalogMagic = [4]byte{'U', 'D', 'B', '4'}

const catFlagDerivedValid = 1 << 0

type catalogData struct {
	checkpointLSN LSN
	checkpointID  uint64
	tables        []catalogTable
}

type catalogTable struct {
	schema       TableSchema
	firstPage    PageID
	snapLSN      LSN
	bornLSN      LSN
	derivedValid bool
	indexes      []catalogIndex
}

// catalogIndex records one index column and its serialized checkpoint
// chain: the chain's head page and the checkpoint stamp it must carry to
// be loadable (a mismatch means the chain belongs to another checkpoint
// generation and the index is rebuilt from the heap instead).
type catalogIndex struct {
	col       string
	firstPage PageID
	stamp     uint64
}

func encodeCatalog(c *catalogData) ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, catalogMagic[:]...)
	var tmp8 [8]byte
	binary.LittleEndian.PutUint64(tmp8[:], uint64(c.checkpointLSN))
	buf = append(buf, tmp8[:]...)
	binary.LittleEndian.PutUint64(tmp8[:], c.checkpointID)
	buf = append(buf, tmp8[:]...)
	var tmp4 [4]byte
	binary.LittleEndian.PutUint32(tmp4[:], uint32(len(c.tables)))
	buf = append(buf, tmp4[:]...)
	for _, t := range c.tables {
		buf = appendString(buf, t.schema.Name)
		binary.LittleEndian.PutUint32(tmp4[:], uint32(len(t.schema.Columns)))
		buf = append(buf, tmp4[:]...)
		for _, col := range t.schema.Columns {
			buf = appendString(buf, col.Name)
			buf = append(buf, byte(col.Type))
		}
		binary.LittleEndian.PutUint32(tmp4[:], uint32(t.firstPage))
		buf = append(buf, tmp4[:]...)
		binary.LittleEndian.PutUint64(tmp8[:], uint64(t.snapLSN))
		buf = append(buf, tmp8[:]...)
		binary.LittleEndian.PutUint64(tmp8[:], uint64(t.bornLSN))
		buf = append(buf, tmp8[:]...)
		var flags byte
		if t.derivedValid {
			flags |= catFlagDerivedValid
		}
		buf = append(buf, flags)
		idxs := append([]catalogIndex(nil), t.indexes...)
		sort.Slice(idxs, func(i, j int) bool { return idxs[i].col < idxs[j].col })
		binary.LittleEndian.PutUint32(tmp4[:], uint32(len(idxs)))
		buf = append(buf, tmp4[:]...)
		for _, ic := range idxs {
			buf = appendString(buf, ic.col)
			binary.LittleEndian.PutUint32(tmp4[:], uint32(ic.firstPage))
			buf = append(buf, tmp4[:]...)
			binary.LittleEndian.PutUint64(tmp8[:], ic.stamp)
			buf = append(buf, tmp8[:]...)
		}
	}
	if len(buf) > PageSize {
		return nil, fmt.Errorf("rdbms: catalog of %d bytes exceeds one page", len(buf))
	}
	page := make([]byte, PageSize)
	copy(page, buf)
	return page, nil
}

func decodeCatalog(page []byte) (*catalogData, error) {
	if len(page) < 24 {
		return nil, fmt.Errorf("rdbms: short catalog page")
	}
	if [4]byte(page[:4]) != catalogMagic {
		if page[0] == 'U' && page[1] == 'D' && page[2] == 'B' && page[3] >= '1' && page[3] <= '3' {
			// Earlier layouts (UDB1: no checkpoint id or index chains; UDB2:
			// no page LSNs, snapshot LSNs, or derived-state validity — and
			// its slotted pages lack the widened LSN header; UDB3: a
			// per-table content-hash spec and digest). No migration path is
			// kept — the formats predate any release — but fail with a
			// diagnosis, not "bad magic".
			return nil, fmt.Errorf("rdbms: catalog format UDB%c is no longer supported; delete the database directory and regenerate", page[3])
		}
		return nil, fmt.Errorf("rdbms: bad catalog magic")
	}
	c := &catalogData{
		checkpointLSN: LSN(binary.LittleEndian.Uint64(page[4:12])),
		checkpointID:  binary.LittleEndian.Uint64(page[12:20]),
	}
	n := int(binary.LittleEndian.Uint32(page[20:24]))
	off := 24
	for i := 0; i < n; i++ {
		var t catalogTable
		name, used, err := readString(page[off:])
		if err != nil {
			return nil, err
		}
		t.schema.Name = name
		off += used
		if len(page) < off+4 {
			return nil, fmt.Errorf("rdbms: truncated catalog")
		}
		ncols := int(binary.LittleEndian.Uint32(page[off : off+4]))
		off += 4
		for j := 0; j < ncols; j++ {
			cname, used, err := readString(page[off:])
			if err != nil {
				return nil, err
			}
			off += used
			if len(page) < off+1 {
				return nil, fmt.Errorf("rdbms: truncated catalog column")
			}
			t.schema.Columns = append(t.schema.Columns, ColumnDef{Name: cname, Type: Type(page[off])})
			off++
		}
		if len(page) < off+21 {
			return nil, fmt.Errorf("rdbms: truncated catalog table")
		}
		t.firstPage = PageID(binary.LittleEndian.Uint32(page[off : off+4]))
		off += 4
		t.snapLSN = LSN(binary.LittleEndian.Uint64(page[off : off+8]))
		off += 8
		t.bornLSN = LSN(binary.LittleEndian.Uint64(page[off : off+8]))
		off += 8
		t.derivedValid = page[off]&catFlagDerivedValid != 0
		off++
		if len(page) < off+4 {
			return nil, fmt.Errorf("rdbms: truncated catalog indexes")
		}
		nidx := int(binary.LittleEndian.Uint32(page[off : off+4]))
		off += 4
		for j := 0; j < nidx; j++ {
			ic, used, err := readString(page[off:])
			if err != nil {
				return nil, err
			}
			off += used
			if len(page) < off+12 {
				return nil, fmt.Errorf("rdbms: truncated catalog index entry")
			}
			t.indexes = append(t.indexes, catalogIndex{
				col:       ic,
				firstPage: PageID(binary.LittleEndian.Uint32(page[off : off+4])),
				stamp:     binary.LittleEndian.Uint64(page[off+4 : off+12]),
			})
			off += 12
		}
		c.tables = append(c.tables, t)
	}
	return c, nil
}
