package rdbms

import (
	"context"
	"fmt"
	"strings"
)

// ResultSet is the output of a query: column headers plus rows.
type ResultSet struct {
	Columns []string
	Rows    []Tuple
	// Plan describes how the statement was executed (seq scan, index
	// scan, join strategy); useful for the optimizer experiments.
	Plan string
	// Mutated reports whether the statement changed table data
	// (INSERT/UPDATE/DELETE/DROP TABLE). Callers maintaining derived
	// caches key invalidation off this flag rather than the
	// display-oriented Plan string.
	Mutated bool
}

// String renders a small result set as an aligned table.
func (rs *ResultSet) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(rs.Columns, " | "))
	b.WriteString("\n")
	for _, r := range rs.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteString("\n")
	}
	return b.String()
}

// Exec parses and executes one SQL statement in its own transaction,
// committing on success and aborting on error.
func (db *DB) Exec(sql string) (*ResultSet, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(context.Background(), stmt)
}

// ExecStmt executes one parsed statement in its own transaction,
// bounded by a context: the transaction has ctx attached, so its
// scan-shaped loops stop with the context's error once the deadline
// passes or the caller cancels (and the transaction is aborted like any
// other failed statement). DDL is not cancelable — it checkpoints, and a
// half-applied catalog change has no clean abort — so ctx is only
// consulted before DDL starts.
func (db *DB) ExecStmt(ctx context.Context, stmt Statement) (*ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// DDL manages its own durability.
	switch s := stmt.(type) {
	case CreateTableStmt:
		return &ResultSet{Plan: "create table"}, db.CreateTable(s.Schema)
	case CreateIndexStmt:
		return &ResultSet{Plan: "create index"}, db.CreateIndex(s.Table, s.Column)
	case DropTableStmt:
		return &ResultSet{Plan: "drop table", Mutated: true}, db.DropTable(s.Table)
	}
	tx := db.Begin().WithContext(ctx)
	rs, err := tx.ExecStmt(stmt)
	if err != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return nil, fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
		}
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return rs, nil
}

// Exec parses and executes one DML/query statement inside this transaction.
func (tx *Txn) Exec(sql string) (*ResultSet, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return tx.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement inside this transaction. DDL is not
// allowed inside transactions.
func (tx *Txn) ExecStmt(stmt Statement) (*ResultSet, error) {
	switch s := stmt.(type) {
	case InsertStmt:
		return tx.execInsert(s)
	case UpdateStmt:
		return tx.execUpdate(s)
	case DeleteStmt:
		return tx.execDelete(s)
	case SelectStmt:
		return tx.execSelect(s)
	case CreateTableStmt, CreateIndexStmt, DropTableStmt:
		return nil, fmt.Errorf("rdbms: DDL must run outside a transaction")
	}
	return nil, fmt.Errorf("rdbms: unsupported statement %T", stmt)
}

// binding maps column references to positions in the working row.
type binding struct {
	cols []ColumnRef // cols[i] describes position i
}

func (b *binding) lookup(ref ColumnRef) (int, error) {
	found := -1
	for i, c := range b.cols {
		if c.Column != ref.Column {
			continue
		}
		if ref.Table != "" && c.Table != ref.Table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("rdbms: ambiguous column %s", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("rdbms: unknown column %s", ref)
	}
	return found, nil
}

func bindingForTable(schema *TableSchema, alias string) *binding {
	name := alias
	if name == "" {
		name = schema.Name
	}
	b := &binding{cols: make([]ColumnRef, 0, len(schema.Columns))}
	for _, c := range schema.Columns {
		b.cols = append(b.cols, ColumnRef{Table: name, Column: c.Name})
	}
	return b
}

// evalExpr evaluates a scalar expression against a bound row.
func evalExpr(e Expr, b *binding, row Tuple) (Value, error) {
	switch x := e.(type) {
	case Literal:
		return x.Val, nil
	case ColumnRef:
		i, err := b.lookup(x)
		if err != nil {
			return Value{}, err
		}
		return row[i], nil
	case UnaryExpr:
		v, err := evalExpr(x.X, b, row)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			if v.Type != TBool {
				return Value{}, fmt.Errorf("rdbms: NOT of non-boolean %s", v.Type)
			}
			return NewBool(!v.B), nil
		case "-":
			switch v.Type {
			case TInt:
				return NewInt(-v.I), nil
			case TFloat:
				return NewFloat(-v.F), nil
			case TNull:
				return Null(), nil
			}
			return Value{}, fmt.Errorf("rdbms: negation of %s", v.Type)
		}
		return Value{}, fmt.Errorf("rdbms: unknown unary op %s", x.Op)
	case IsNullExpr:
		v, err := evalExpr(x.X, b, row)
		if err != nil {
			return Value{}, err
		}
		return NewBool(v.IsNull() != x.Not), nil
	case BetweenExpr:
		v, err := evalExpr(x.X, b, row)
		if err != nil {
			return Value{}, err
		}
		lo, err := evalExpr(x.Lo, b, row)
		if err != nil {
			return Value{}, err
		}
		hi, err := evalExpr(x.Hi, b, row)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		c1, ok1 := Compare(v, lo)
		c2, ok2 := Compare(v, hi)
		if !ok1 || !ok2 {
			return Value{}, fmt.Errorf("rdbms: incomparable BETWEEN operands")
		}
		return NewBool(c1 >= 0 && c2 <= 0), nil
	case BinaryExpr:
		return evalBinary(x, b, row)
	case AggExpr:
		return Value{}, fmt.Errorf("rdbms: aggregate %s outside GROUP BY context", x.Func)
	}
	return Value{}, fmt.Errorf("rdbms: unknown expression %T", e)
}

func evalBinary(x BinaryExpr, b *binding, row Tuple) (Value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := evalExpr(x.Left, b, row)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit with three-valued logic.
		if l.Type == TBool {
			if x.Op == "AND" && !l.B {
				return NewBool(false), nil
			}
			if x.Op == "OR" && l.B {
				return NewBool(true), nil
			}
		}
		r, err := evalExpr(x.Right, b, row)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			// NULL AND false = false; NULL OR true = true.
			if x.Op == "AND" && r.Type == TBool && !r.B {
				return NewBool(false), nil
			}
			if x.Op == "OR" && r.Type == TBool && r.B {
				return NewBool(true), nil
			}
			return Null(), nil
		}
		if l.Type != TBool || r.Type != TBool {
			return Value{}, fmt.Errorf("rdbms: %s of non-booleans", x.Op)
		}
		if x.Op == "AND" {
			return NewBool(l.B && r.B), nil
		}
		return NewBool(l.B || r.B), nil
	}
	l, err := evalExpr(x.Left, b, row)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(x.Right, b, row)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, ok := Compare(l, r)
		if !ok {
			return Value{}, fmt.Errorf("rdbms: cannot compare %s with %s", l.Type, r.Type)
		}
		switch x.Op {
		case "=":
			return NewBool(c == 0), nil
		case "!=":
			return NewBool(c != 0), nil
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		case ">=":
			return NewBool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if l.Type != TString || r.Type != TString {
			return Value{}, fmt.Errorf("rdbms: LIKE needs strings")
		}
		return NewBool(likeMatch(l.S, r.S)), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if x.Op == "+" && l.Type == TString && r.Type == TString {
			return NewString(l.S + r.S), nil
		}
		if l.Type == TInt && r.Type == TInt {
			switch x.Op {
			case "+":
				return NewInt(l.I + r.I), nil
			case "-":
				return NewInt(l.I - r.I), nil
			case "*":
				return NewInt(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					return Value{}, fmt.Errorf("rdbms: division by zero")
				}
				return NewInt(l.I / r.I), nil
			}
		}
		lf, ok1 := l.AsFloat()
		rf, ok2 := r.AsFloat()
		if !ok1 || !ok2 {
			return Value{}, fmt.Errorf("rdbms: arithmetic on %s and %s", l.Type, r.Type)
		}
		switch x.Op {
		case "+":
			return NewFloat(lf + rf), nil
		case "-":
			return NewFloat(lf - rf), nil
		case "*":
			return NewFloat(lf * rf), nil
		case "/":
			if rf == 0 {
				return Value{}, fmt.Errorf("rdbms: division by zero")
			}
			return NewFloat(lf / rf), nil
		}
	}
	return Value{}, fmt.Errorf("rdbms: unknown operator %s", x.Op)
}

// truthy treats NULL as false (SQL WHERE semantics).
func truthy(v Value) bool { return v.Type == TBool && v.B }

func (tx *Txn) execInsert(s InsertStmt) (*ResultSet, error) {
	t, err := tx.table(s.Table)
	if err != nil {
		return nil, err
	}
	cols := s.Columns
	if len(cols) == 0 {
		for _, c := range t.Schema.Columns {
			cols = append(cols, c.Name)
		}
	}
	n := 0
	for _, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("rdbms: INSERT row has %d values for %d columns", len(row), len(cols))
		}
		tup := make(Tuple, len(t.Schema.Columns))
		for i := range tup {
			tup[i] = Null()
		}
		for i, col := range cols {
			ci := t.Schema.ColIndex(col)
			if ci < 0 {
				return nil, fmt.Errorf("rdbms: no column %s in %s", col, s.Table)
			}
			v, err := evalExpr(row[i], &binding{}, nil)
			if err != nil {
				return nil, err
			}
			tup[ci] = v
		}
		if _, err := tx.Insert(s.Table, tup); err != nil {
			return nil, err
		}
		n++
	}
	return &ResultSet{Columns: []string{"inserted"}, Rows: []Tuple{{NewInt(int64(n))}}, Plan: "insert", Mutated: true}, nil
}

func (tx *Txn) execUpdate(s UpdateStmt) (*ResultSet, error) {
	t, err := tx.table(s.Table)
	if err != nil {
		return nil, err
	}
	b := bindingForTable(&t.Schema, "")
	// Collect matching rows first (cannot mutate under scan).
	type match struct {
		rid RID
		tup Tuple
	}
	var matches []match
	err = tx.Scan(s.Table, func(rid RID, tup Tuple) bool {
		if s.Where != nil {
			v, e := evalExpr(s.Where, b, tup)
			if e != nil {
				err = e
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		matches = append(matches, match{rid, tup.Clone()})
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, m := range matches {
		newTup := m.tup.Clone()
		for _, set := range s.Set {
			ci := t.Schema.ColIndex(set.Column)
			if ci < 0 {
				return nil, fmt.Errorf("rdbms: no column %s in %s", set.Column, s.Table)
			}
			v, err := evalExpr(set.Value, b, m.tup)
			if err != nil {
				return nil, err
			}
			newTup[ci] = v
		}
		if _, err := tx.Update(s.Table, m.rid, newTup); err != nil {
			return nil, err
		}
	}
	return &ResultSet{Columns: []string{"updated"}, Rows: []Tuple{{NewInt(int64(len(matches)))}}, Plan: "update", Mutated: true}, nil
}

func (tx *Txn) execDelete(s DeleteStmt) (*ResultSet, error) {
	t, err := tx.table(s.Table)
	if err != nil {
		return nil, err
	}
	b := bindingForTable(&t.Schema, "")
	var rids []RID
	err = tx.Scan(s.Table, func(rid RID, tup Tuple) bool {
		if s.Where != nil {
			v, e := evalExpr(s.Where, b, tup)
			if e != nil {
				err = e
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := tx.Delete(s.Table, rid); err != nil {
			return nil, err
		}
	}
	return &ResultSet{Columns: []string{"deleted"}, Rows: []Tuple{{NewInt(int64(len(rids)))}}, Plan: "delete", Mutated: true}, nil
}
