package rdbms

import (
	"strings"
	"testing"
)

// indexedDB builds a table with an index on val and pop for access-path
// tests, including boundary rows for strict-bound regression checks.
func indexedDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE m (id INT, grp STRING, val INT)")
	mustExec(t, db, "CREATE INDEX ON m (val)")
	mustExec(t, db, `INSERT INTO m VALUES
		(1, 'a', 10), (2, 'a', 20), (3, 'b', 20), (4, 'b', 30), (5, 'c', 40)`)
	return db
}

// TestStrictBoundsUseResidualFilter is the regression test for the
// access-path contract: strict bounds (>, <) are widened to inclusive
// index ranges and the residual filter must drop the boundary rows.
func TestStrictBoundsUseResidualFilter(t *testing.T) {
	db := indexedDB(t)
	cases := []struct {
		sql  string
		want []int64
	}{
		{"SELECT id FROM m WHERE val > 20 ORDER BY id", []int64{4, 5}},
		{"SELECT id FROM m WHERE val >= 20 ORDER BY id", []int64{2, 3, 4, 5}},
		{"SELECT id FROM m WHERE val < 20 ORDER BY id", []int64{1}},
		{"SELECT id FROM m WHERE val <= 20 ORDER BY id", []int64{1, 2, 3}},
		{"SELECT id FROM m WHERE val > 10 AND val < 40 ORDER BY id", []int64{2, 3, 4}},
	}
	for _, c := range cases {
		rs := mustExec(t, db, c.sql)
		if !strings.Contains(rs.Plan, "index range scan") {
			t.Fatalf("%s: expected index range scan, got plan %q", c.sql, rs.Plan)
		}
		if len(rs.Rows) != len(c.want) {
			t.Fatalf("%s: got %d rows (%v), want %v", c.sql, len(rs.Rows), rs.Rows, c.want)
		}
		for i, w := range c.want {
			if rs.Rows[i][0].I != w {
				t.Fatalf("%s: row %d = %v, want %d", c.sql, i, rs.Rows[i], w)
			}
		}
	}
}

// TestAccessPathPrefersSelectiveEquality checks the cost-based equality
// choice: with two indexed equality conjuncts, the one matching fewer
// entries is chosen.
func TestAccessPathPrefersSelectiveEquality(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE eav (entity STRING, attribute STRING, value INT)")
	mustExec(t, db, "CREATE INDEX ON eav (entity)")
	mustExec(t, db, "CREATE INDEX ON eav (attribute)")
	tx := db.Begin()
	for i := 0; i < 50; i++ {
		ent := "e-narrow"
		if i >= 2 {
			ent = "e-broad"
		}
		if _, err := tx.Insert("eav", Tuple{NewString(ent), NewString("temp"), NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// attribute='temp' matches 50 rows, entity='e-narrow' matches 2: the
	// entity index must win regardless of conjunct order.
	for _, sql := range []string{
		"SELECT value FROM eav WHERE attribute = 'temp' AND entity = 'e-narrow'",
		"SELECT value FROM eav WHERE entity = 'e-narrow' AND attribute = 'temp'",
	} {
		rs := mustExec(t, db, sql)
		if !strings.Contains(rs.Plan, "index eq scan (entity") {
			t.Fatalf("%s: plan %q should use the entity index", sql, rs.Plan)
		}
		if len(rs.Rows) != 2 {
			t.Fatalf("%s: got %d rows", sql, len(rs.Rows))
		}
	}
}

// TestStreamingWhereMatchesMaterialized cross-checks the pushed-down
// filter against the same predicate evaluated the slow way (no index, all
// comparison shapes), including NULL handling.
func TestStreamingWhereMatchesMaterialized(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE s (id INT, name STRING, score FLOAT)")
	mustExec(t, db, `INSERT INTO s VALUES
		(1, 'x', 1.5), (2, 'y', NULL), (3, 'x', 3.5), (4, 'z', 0.5), (5, 'y', 3.5)`)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM s WHERE score > 1", 3},
		{"SELECT id FROM s WHERE score IS NULL", 1},
		{"SELECT id FROM s WHERE name = 'x' AND score > 2", 1},
		{"SELECT id FROM s WHERE name = 'x' OR score < 1", 3},
		{"SELECT id FROM s WHERE score BETWEEN 1 AND 4", 3},
	}
	for _, c := range cases {
		rs := mustExec(t, db, c.sql)
		if len(rs.Rows) != c.want {
			t.Fatalf("%s: got %d rows, want %d", c.sql, len(rs.Rows), c.want)
		}
	}
}

// TestEarlyLimitCorrectness: unordered LIMIT/OFFSET stops the scan early
// but must still honor OFFSET, and must NOT early-stop when ORDER BY,
// DISTINCT, grouping, or a join needs the full row set.
func TestEarlyLimitCorrectness(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (id INT, grp STRING)")
	mustExec(t, db, `INSERT INTO t VALUES
		(1, 'a'), (2, 'a'), (3, 'b'), (4, 'b'), (5, 'c'), (6, 'c')`)

	if rs := mustExec(t, db, "SELECT id FROM t LIMIT 2"); len(rs.Rows) != 2 {
		t.Fatalf("LIMIT 2: %d rows", len(rs.Rows))
	}
	if rs := mustExec(t, db, "SELECT id FROM t LIMIT 2 OFFSET 3"); len(rs.Rows) != 2 || rs.Rows[0][0].I != 4 {
		t.Fatalf("LIMIT 2 OFFSET 3: %+v", rs.Rows)
	}
	if rs := mustExec(t, db, "SELECT id FROM t WHERE grp = 'b' LIMIT 1"); len(rs.Rows) != 1 || rs.Rows[0][0].I != 3 {
		t.Fatalf("filtered LIMIT: %+v", rs.Rows)
	}
	if rs := mustExec(t, db, "SELECT id FROM t LIMIT 0"); len(rs.Rows) != 0 {
		t.Fatalf("LIMIT 0: %d rows", len(rs.Rows))
	}
	// ORDER BY needs all rows: highest id must win, not the first scanned.
	if rs := mustExec(t, db, "SELECT id FROM t ORDER BY id DESC LIMIT 1"); rs.Rows[0][0].I != 6 {
		t.Fatalf("ORDER BY DESC LIMIT 1: %+v", rs.Rows)
	}
	// DISTINCT needs all rows.
	if rs := mustExec(t, db, "SELECT DISTINCT grp FROM t LIMIT 3"); len(rs.Rows) != 3 {
		t.Fatalf("DISTINCT LIMIT: %+v", rs.Rows)
	}
	// Aggregation needs all rows.
	if rs := mustExec(t, db, "SELECT COUNT(*) FROM t LIMIT 1"); rs.Rows[0][0].I != 6 {
		t.Fatalf("COUNT LIMIT: %+v", rs.Rows)
	}
}

// TestKeyEncodingNoCollisions guards the prefix-free key writer: string
// tuples that concatenate identically must stay distinct, and int/float
// values that compare equal must collide (joins across numeric types).
func TestKeyEncodingNoCollisions(t *testing.T) {
	// ("ab","c") vs ("a","bc") — the old "+"-concatenated keys only
	// survived this because of a separator; length prefixes must too.
	k1 := AppendTupleKey(nil, Tuple{NewString("ab"), NewString("c")})
	k2 := AppendTupleKey(nil, Tuple{NewString("a"), NewString("bc")})
	if string(k1) == string(k2) {
		t.Fatal("string tuple keys collide")
	}
	// A string containing the old separator must not fold.
	k3 := AppendTupleKey(nil, Tuple{NewString("a|b")})
	k4 := AppendTupleKey(nil, Tuple{NewString("a"), NewString("b")})
	if string(k3) == string(k4) {
		t.Fatal("separator-bearing string collides with split tuple")
	}
	// Numeric cross-type equality must collide (hash join contract).
	if string(appendKey(nil, NewInt(5))) != string(appendKey(nil, NewFloat(5))) {
		t.Fatal("int 5 and float 5.0 should share a key")
	}
	if string(appendKey(nil, NewInt(5))) == string(appendKey(nil, NewFloat(5.5))) {
		t.Fatal("5 and 5.5 must not share a key")
	}
	// NULL, bool, and distinct types stay distinct.
	if string(appendKey(nil, Null())) == string(appendKey(nil, NewBool(false))) {
		t.Fatal("NULL and false collide")
	}

	// End to end: DISTINCT over adversarial strings.
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE d (a STRING, b STRING)")
	mustExec(t, db, `INSERT INTO d VALUES ('ab', 'c'), ('a', 'bc'), ('ab', 'c')`)
	if rs := mustExec(t, db, "SELECT DISTINCT a, b FROM d"); len(rs.Rows) != 2 {
		t.Fatalf("DISTINCT folded distinct tuples: %+v", rs.Rows)
	}
	// GROUP BY with numeric cross-type keys.
	mustExec(t, db, "CREATE TABLE g (k FLOAT, v INT)")
	mustExec(t, db, "INSERT INTO g VALUES (1.0, 10), (1.0, 20), (2.5, 30)")
	if rs := mustExec(t, db, "SELECT k, SUM(v) FROM g GROUP BY k"); len(rs.Rows) != 2 {
		t.Fatalf("GROUP BY: %+v", rs.Rows)
	}
}

// TestJoinWithFilteredBase ensures join queries still apply WHERE after
// the join (the filter may reference both sides) and still use an index
// on the FROM table when the predicate is sargable.
func TestJoinWithFilteredBase(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE l (id INT, rid INT)")
	mustExec(t, db, "CREATE INDEX ON l (id)")
	mustExec(t, db, "CREATE TABLE r (rid INT, tag STRING)")
	mustExec(t, db, "INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, db, "INSERT INTO r VALUES (10, 'x'), (20, 'y'), (30, 'x')")
	rs := mustExec(t, db, "SELECT l.id, r.tag FROM l JOIN r ON l.rid = r.rid WHERE l.id = 2 AND r.tag = 'y'")
	if !strings.Contains(rs.Plan, "index eq scan (id") {
		t.Fatalf("join base should use index: plan %q", rs.Plan)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 2 || rs.Rows[0][1].S != "y" {
		t.Fatalf("join rows: %+v", rs.Rows)
	}
	// A cross-side predicate with no sargable FROM conjunct: seq scan, all
	// filtering post-join.
	rs = mustExec(t, db, "SELECT l.id FROM l JOIN r ON l.rid = r.rid WHERE r.tag = 'x'")
	if len(rs.Rows) != 2 {
		t.Fatalf("post-join filter rows: %+v", rs.Rows)
	}
}
