package rdbms

import "strings"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Schema TableSchema
}

// CreateIndexStmt is CREATE INDEX ON table (column).
type CreateIndexStmt struct {
	Table  string
	Column string
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Table string
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty = schema order
	Rows    [][]Expr
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE pred].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr // nil = all rows
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE pred].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is a SELECT with optional join, filter, grouping, ordering.
type SelectStmt struct {
	Exprs     []SelectExpr
	Distinct  bool
	From      string
	FromAlias string
	Join      *JoinClause
	Where     Expr
	GroupBy   []ColumnRef
	Having    Expr
	OrderBy   []OrderKey
	Limit     int // -1 = none
	Offset    int
}

// SelectExpr is one output expression with an optional alias. A Star
// expands to all columns.
type SelectExpr struct {
	Expr  Expr
	Alias string
	Star  bool
}

// JoinClause is INNER JOIN table [alias] ON left = right.
type JoinClause struct {
	Table string
	Alias string
	Left  ColumnRef
	Right ColumnRef
}

// OrderKey is one ORDER BY expression.
type OrderKey struct {
	Expr Expr
	Desc bool
}

func (CreateTableStmt) stmt() {}
func (CreateIndexStmt) stmt() {}
func (DropTableStmt) stmt()   {}
func (InsertStmt) stmt()      {}
func (UpdateStmt) stmt()      {}
func (DeleteStmt) stmt()      {}
func (SelectStmt) stmt()      {}

// Expr is a SQL expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// ColumnRef names a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders t.c or c.
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// BinaryExpr applies Op to Left and Right. Ops: = != < <= > >= AND OR
// + - * / LIKE.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
}

// AggExpr is COUNT(*) / COUNT(x) / SUM / AVG / MIN / MAX.
type AggExpr struct {
	Func string // COUNT, SUM, AVG, MIN, MAX (uppercase)
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

func (Literal) expr()     {}
func (ColumnRef) expr()   {}
func (BinaryExpr) expr()  {}
func (UnaryExpr) expr()   {}
func (IsNullExpr) expr()  {}
func (BetweenExpr) expr() {}
func (AggExpr) expr()     {}

// exprString renders an expression for error messages and column headers.
func exprString(e Expr) string {
	switch x := e.(type) {
	case Literal:
		if x.Val.Type == TString {
			return "'" + x.Val.S + "'"
		}
		return x.Val.String()
	case ColumnRef:
		return x.String()
	case BinaryExpr:
		return exprString(x.Left) + " " + x.Op + " " + exprString(x.Right)
	case UnaryExpr:
		return x.Op + " " + exprString(x.X)
	case IsNullExpr:
		if x.Not {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case BetweenExpr:
		return exprString(x.X) + " BETWEEN " + exprString(x.Lo) + " AND " + exprString(x.Hi)
	case AggExpr:
		if x.Star {
			return x.Func + "(*)"
		}
		return x.Func + "(" + exprString(x.Arg) + ")"
	}
	return "?"
}

// SelectColumnName returns the output column name the executor gives
// one select-list expression: the alias, else the expression's display
// rendering, exactly as expandSelect names it.
func SelectColumnName(se SelectExpr) string {
	if se.Star {
		return "*"
	}
	if se.Alias != "" {
		return se.Alias
	}
	return exprString(se.Expr)
}

// hasAgg reports whether e contains an aggregate call.
func hasAgg(e Expr) bool {
	switch x := e.(type) {
	case AggExpr:
		return true
	case BinaryExpr:
		return hasAgg(x.Left) || hasAgg(x.Right)
	case UnaryExpr:
		return hasAgg(x.X)
	case IsNullExpr:
		return hasAgg(x.X)
	case BetweenExpr:
		return hasAgg(x.X) || hasAgg(x.Lo) || hasAgg(x.Hi)
	}
	return false
}

// likeMatch implements SQL LIKE with % and _ wildcards (case-insensitive,
// which suits keyword-derived predicates over extracted text).
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}
