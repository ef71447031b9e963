package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/synth"
)

// sampleFacts returns up to n real (entity, qualifier) pairs for the
// attribute, so correction tests mutate rows that actually exist.
func sampleFacts(t *testing.T, ss *ShardedSystem, attribute string, n int) [][2]string {
	t.Helper()
	rs, err := ss.SQL(context.Background(),
		fmt.Sprintf("SELECT entity, qualifier FROM extracted WHERE attribute = '%s' ORDER BY entity, qualifier LIMIT %d", attribute, n))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		out = append(out, [2]string{row[0].S, row[1].S})
	}
	if len(out) == 0 {
		t.Fatalf("no %s facts to sample", attribute)
	}
	return out
}

// newCorpusConfig builds the shared synthetic corpus every oracle run
// uses: the single reference engine and every sharded layout see the
// same documents.
func newCorpusConfig(t *testing.T) core.Config {
	t.Helper()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: 60, People: 12, Filler: 20, MentionsPerPerson: 2,
	})
	return core.Config{Corpus: corpus, Workers: 4}
}

// newSingle builds the single-engine reference, bulk-ingested with the
// given extraction width.
func newSingle(t *testing.T, cfg core.Config, partitions int) *core.System {
	t.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.BulkIngest(context.Background(), "city", partitions); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newSharded builds an in-memory N-shard layout over the same corpus,
// bulk-ingested with the same extraction width.
func newSharded(t *testing.T, cfg core.Config, n, partitions int) *ShardedSystem {
	t.Helper()
	ss, err := Open(Config{Shards: n, System: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	if _, err := ss.BulkIngest(context.Background(), "city", partitions); err != nil {
		t.Fatal(err)
	}
	return ss
}

func mustSQL(t *testing.T, q string, f func(string) (*rdbms.ResultSet, error)) *rdbms.ResultSet {
	t.Helper()
	rs, err := f(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rs
}

// renderRows flattens a result set the way the wire layer does, so a
// comparison is a true byte-identity check on what clients see.
func renderRows(rs *rdbms.ResultSet) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(rs.Columns, "|"))
	sb.WriteByte('\n')
	for _, row := range rs.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestShardedSelectEquivalenceOracle: for 1-, 2-, and 4-shard layouts,
// ORDER BY SELECT streams (keys including the partition column, so tie
// order is pinned), entity-routed statements, and LIMIT/OFFSET slices
// must be byte-identical to a single engine over the same corpus.
// Unordered and aggregate reads ride along: the entity merge
// reconstructs the single-engine scan stream for ingest-built tables.
func TestShardedSelectEquivalenceOracle(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			single := newSingle(t, cfg, n)
			sharded := newSharded(t, cfg, n, n)

			queries := []string{
				// Ordered streams with entity among the keys: ties on the
				// leading keys cross shards, full-key ties cannot.
				"SELECT entity, attribute, qualifier, value FROM extracted ORDER BY entity, attribute, qualifier",
				"SELECT entity, attribute, value FROM extracted ORDER BY attribute, entity, qualifier LIMIT 23",
				"SELECT entity, num FROM extracted WHERE attribute = 'temperature' ORDER BY num DESC, entity, qualifier LIMIT 11 OFFSET 4",
				"SELECT entity FROM extracted WHERE num > 40 ORDER BY entity DESC LIMIT 9",
				"SELECT entity, value AS v FROM extracted ORDER BY v, entity LIMIT 15",
				"SELECT * FROM extracted ORDER BY entity, attribute, qualifier, value LIMIT 31 OFFSET 7",
				"SELECT entity, qualifier FROM extracted ORDER BY entity LIMIT 0",
				"SELECT entity FROM extracted ORDER BY entity OFFSET 100000",
				// Entity-routed: every feature allowed, verbatim on one shard.
				"SELECT value, conf FROM extracted WHERE entity = 'Madison, Wisconsin' AND attribute = 'temperature' ORDER BY qualifier",
				"SELECT COUNT(*), AVG(num) FROM extracted WHERE entity = 'Madison, Wisconsin'",
				"SELECT attribute, COUNT(*) AS n FROM extracted WHERE entity = 'Madison, Wisconsin' GROUP BY attribute HAVING COUNT(*) > 0 ORDER BY n DESC, attribute",
				// Co-located JOIN: extracted to itself on entity, routed.
				"SELECT e.attribute, e.qualifier, f.value FROM extracted e JOIN extracted f ON e.entity = f.entity WHERE e.entity = 'Madison, Wisconsin' AND f.attribute = 'population'",
				"SELECT COUNT(*) FROM extracted e JOIN extracted f ON e.entity = f.entity WHERE f.entity = 'Madison, Wisconsin'",
				// Aggregate recombination (exact: COUNT/MIN/MAX; SUM over ints).
				"SELECT COUNT(*) FROM extracted",
				"SELECT COUNT(*) FROM extracted WHERE attribute = 'population'",
				"SELECT MIN(num), MAX(num) FROM extracted WHERE attribute = 'temperature'",
				"SELECT entity, COUNT(*) AS n FROM extracted GROUP BY entity ORDER BY entity",
				"SELECT attribute, COUNT(*) AS n FROM extracted GROUP BY attribute ORDER BY attribute LIMIT 2 OFFSET 1",
				// DISTINCT with and without ORDER BY over output columns.
				"SELECT DISTINCT attribute FROM extracted ORDER BY attribute",
				"SELECT DISTINCT entity, attribute FROM extracted ORDER BY entity, attribute LIMIT 19 OFFSET 3",
				// Unordered reads: byte-identical under width alignment.
				"SELECT entity, attribute, qualifier, value FROM extracted",
				"SELECT entity, value FROM extracted WHERE attribute = 'temperature' LIMIT 25",
				"SELECT DISTINCT attribute FROM extracted",
				// Expression shapes on fan-out paths: each reaches the
				// shards as the parsed statement, not as text.
				"SELECT entity, qualifier, num FROM extracted WHERE attribute = 'temperature' AND num BETWEEN 40 AND 60 ORDER BY num, entity, qualifier LIMIT 20",
				"SELECT entity, attribute, qualifier FROM extracted WHERE num IS NULL LIMIT 30",
				"SELECT COUNT(*) FROM extracted WHERE num IS NOT NULL",
				"SELECT entity, attribute, value FROM extracted WHERE NOT (attribute = 'temperature' OR attribute = 'population') ORDER BY entity, attribute, qualifier LIMIT 25",
				"SELECT entity, qualifier, -num AS neg FROM extracted WHERE -num < -50 ORDER BY neg, entity, qualifier LIMIT 15",
				"SELECT entity, qualifier, num + 2 * 3, (num + 2) * 3 FROM extracted WHERE attribute = 'temperature' ORDER BY entity, qualifier LIMIT 12",
				"SELECT entity, qualifier, num + 2 * 3 FROM extracted WHERE attribute = 'temperature' ORDER BY (num + 2) * 3 DESC, entity, qualifier LIMIT 10",
				"SELECT DISTINCT entity FROM extracted WHERE entity LIKE '%ton%'",
				"SELECT entity, 'it''s' AS tag FROM extracted WHERE value != 'it''s' AND attribute = 'population' ORDER BY entity LIMIT 5",
				"SELECT entity, attribute, conf FROM extracted WHERE conf > 0.75 AND num < 55.5 ORDER BY conf DESC, entity, attribute, qualifier LIMIT 20",
				"SELECT attribute, COUNT(*) FROM extracted WHERE attribute != 'temperature' GROUP BY attribute ORDER BY attribute",
				"SELECT attribute, 'k' AS kind, 7, COUNT(*) FROM extracted GROUP BY attribute ORDER BY attribute",
				"SELECT attribute, COUNT(*) FROM extracted GROUP BY attribute ORDER BY COUNT(*) DESC, attribute",
				// ORDER BY keys that match a select-list expression, not
				// its alias.
				"SELECT attribute AS a, COUNT(*) AS n FROM extracted GROUP BY attribute ORDER BY COUNT(*) DESC, attribute",
				"SELECT DISTINCT num + 1 AS x FROM extracted WHERE attribute = 'temperature' ORDER BY num + 1 DESC LIMIT 10",
				// Float SUM and AVG: exact sums rounded once, so no
				// summation order shows.
				"SELECT SUM(num), AVG(num) FROM extracted WHERE attribute = 'temperature'",
				"SELECT SUM(num), AVG(num) FROM extracted",
				"SELECT SUM(conf), AVG(conf) FROM extracted",
				"SELECT attribute, SUM(conf), AVG(conf), SUM(num) FROM extracted GROUP BY attribute",
				"SELECT qualifier, AVG(num) FROM extracted WHERE attribute = 'temperature' GROUP BY qualifier",
				"SELECT qualifier, AVG(num) AS a FROM extracted WHERE attribute = 'temperature' GROUP BY qualifier ORDER BY a DESC",
				// Unordered groups come in key order; ties under ORDER BY
				// keep it.
				"SELECT attribute, COUNT(*) FROM extracted GROUP BY attribute",
				"SELECT qualifier, COUNT(*) FROM extracted GROUP BY qualifier ORDER BY COUNT(*) DESC",
				// The engine's final step: HAVING, aggregate arithmetic,
				// ORDER BY an aggregate outside the output, DISTINCT.
				"SELECT attribute, COUNT(*) FROM extracted GROUP BY attribute HAVING COUNT(*) > 3",
				"SELECT COUNT(*) + 1 FROM extracted",
				"SELECT attribute, COUNT(*) FROM extracted GROUP BY attribute ORDER BY MAX(num)",
				"SELECT DISTINCT COUNT(*) FROM extracted",
			}
			for _, q := range queries {
				want := mustSQL(t, q, func(q string) (*rdbms.ResultSet, error) { return single.SQL(ctx, q) })
				got := mustSQL(t, q, func(q string) (*rdbms.ResultSet, error) { return sharded.SQL(ctx, q) })
				if renderRows(want) != renderRows(got) {
					t.Errorf("diverged on %q:\nsingle:\n%s\nsharded:\n%s", q, renderRows(want), renderRows(got))
				}
			}
		})
	}
}

// TestShardedOrderedMergeUnalignedWidth: reads stay byte-identical even
// when the extraction shuffle width does not match the shard count (the
// extraction stream is entity-sorted for any width, so the merges never
// depended on alignment).
func TestShardedOrderedMergeUnalignedWidth(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	single := newSingle(t, cfg, 8)
	sharded := newSharded(t, cfg, 2, 8)
	queries := []string{
		"SELECT entity, attribute, qualifier, value FROM extracted ORDER BY entity, attribute, qualifier",
		"SELECT entity, num FROM extracted WHERE attribute = 'population' ORDER BY num DESC, entity LIMIT 13 OFFSET 2",
		"SELECT COUNT(*) FROM extracted",
	}
	for _, q := range queries {
		want := mustSQL(t, q, func(q string) (*rdbms.ResultSet, error) { return single.SQL(ctx, q) })
		got := mustSQL(t, q, func(q string) (*rdbms.ResultSet, error) { return sharded.SQL(ctx, q) })
		if renderRows(want) != renderRows(got) {
			t.Errorf("diverged on %q:\nsingle:\n%s\nsharded:\n%s", q, renderRows(want), renderRows(got))
		}
	}
}

// TestShardedGuidedAndSearchEquivalence: the guided flow (candidates,
// answer, coverage) and keyword search must be byte-identical to a
// single engine for 1-, 2-, and 4-shard layouts.
func TestShardedGuidedAndSearchEquivalence(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		single := newSingle(t, cfg, n)
		sharded := newSharded(t, cfg, n, n)
		for _, q := range []string{
			"madison temperature",
			"temperature in march",
			"population",
			"founded madison",
		} {
			want, err := single.AskGuided(ctx, q, 3)
			if err != nil {
				t.Fatalf("single ask %q: %v", q, err)
			}
			got, err := sharded.AskGuided(ctx, q, 3)
			if err != nil {
				t.Fatalf("sharded ask %q: %v", q, err)
			}
			if !reflect.DeepEqual(want.Candidates, got.Candidates) {
				t.Errorf("shards=%d query %q: candidates diverged\nsingle:  %+v\nsharded: %+v", n, q, want.Candidates, got.Candidates)
			}
			if (want.Answer == nil) != (got.Answer == nil) {
				t.Fatalf("shards=%d query %q: answer presence diverged", n, q)
			}
			if want.Answer != nil && renderRows(want.Answer) != renderRows(got.Answer) {
				t.Errorf("shards=%d query %q: answers diverged\nsingle:\n%s\nsharded:\n%s", n, q, renderRows(want.Answer), renderRows(got.Answer))
			}
			if want.Coverage != got.Coverage {
				t.Errorf("shards=%d query %q: coverage %v vs %v", n, q, want.Coverage, got.Coverage)
			}
		}
		for _, q := range []string{"madison", "temperature", "university"} {
			want, err := single.KeywordSearch(ctx, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.KeywordSearch(ctx, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("shards=%d search %q diverged: %+v vs %+v", n, q, want, got)
			}
		}
	}
}

// TestShardedBrowseEquivalence: the entity-merged browse stream — rows
// and facets — must match a single engine exactly.
func TestShardedBrowseEquivalence(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	single := newSingle(t, cfg, 2)
	sharded := newSharded(t, cfg, 2, 2)
	want, err := single.Browse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Browse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Facets(), got.Facets()) {
		t.Errorf("facets diverged:\nsingle:  %+v\nsharded: %+v", want.Facets(), got.Facets())
	}
	if !reflect.DeepEqual(want.Rows(), got.Rows()) {
		t.Errorf("browse rows diverged (%d vs %d rows)", len(want.Rows()), len(got.Rows()))
	}
}

// TestShardedViewVectorSnapshot: a ShardedView pins one snapshot per
// shard; corrections landing after the view opened stay invisible to
// it, and the LSN vector has one component per shard.
func TestShardedViewVectorSnapshot(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	ss := newSharded(t, cfg, 4, 4)

	sv, err := ss.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if got := len(sv.LSNs()); got != 4 {
		t.Fatalf("LSN vector length %d, want 4", got)
	}
	const q = "SELECT entity, qualifier, value FROM extracted WHERE attribute = 'temperature' ORDER BY entity, qualifier"
	before, err := sv.SQL(q)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate real facts through the sharded write path (entity hash
	// spreads the corrections over shards).
	facts := sampleFacts(t, ss, "temperature", 6)
	for _, f := range facts {
		if err := ss.CorrectValue(ctx, "auditor", f[0], "temperature", f[1], "-273"); err != nil {
			t.Fatalf("correct %s/%s: %v", f[0], f[1], err)
		}
	}

	after, err := sv.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(before) != renderRows(after) {
		t.Fatal("pinned view saw corrections: not a repeatable vector snapshot")
	}
	// A fresh read outside the view sees the corrections' world.
	fresh, err := ss.SQL(ctx, fmt.Sprintf(
		"SELECT value FROM extracted WHERE entity = '%s' AND attribute = 'temperature' AND qualifier = '%s'",
		strings.ReplaceAll(facts[0][0], "'", "''"), facts[0][1]))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range fresh.Rows {
		if row[0].S == "-273" {
			found = true
		}
	}
	if !found {
		t.Fatal("correction not visible to a fresh sharded read")
	}
}

// TestShardedTypedRefusals: mutations and non-mergeable cross-shard
// shapes come back as typed errors, not silent wrong answers.
func TestShardedTypedRefusals(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	ss := newSharded(t, cfg, 2, 2)
	cases := []struct {
		q    string
		want error
	}{
		{"INSERT INTO extracted VALUES ('x','a','q','v',1,0.5)", ErrReadOnly},
		{"DELETE FROM extracted WHERE entity = 'Madison, Wisconsin'", ErrReadOnly},
		{"SELECT e.value FROM extracted e JOIN extracted f ON e.entity = f.entity", ErrUnsupported},
		{"UPDATE extracted SET value = 'x' WHERE entity = 'Madison, Wisconsin'", ErrReadOnly},
		// Routed, but the joined side is not co-located with the entity.
		{"SELECT COUNT(*) FROM extracted e JOIN extracted f ON e.attribute = f.attribute WHERE e.entity = 'Madison, Wisconsin'", ErrUnsupported},
		// One engine refuses these too, with the same typed error.
		{"SELECT *, COUNT(*) FROM extracted", rdbms.ErrNotGrouped},
		{"SELECT entity, COUNT(*) FROM extracted GROUP BY attribute", rdbms.ErrNotGrouped},
		{"SELECT DISTINCT attribute FROM extracted ORDER BY entity", ErrUnsupported},
	}
	for _, c := range cases {
		_, err := ss.SQL(ctx, c.q)
		if !errors.Is(err, c.want) {
			t.Errorf("%q: got %v, want %v", c.q, err, c.want)
		}
	}
}

// TestShardLossDegradedServing: killing a shard degrades reads instead
// of failing them — partial results arrive WITH a *DegradedError naming
// the gap, keyword search returns exactly the single engine's ranking
// without the lost shard's documents, entity-routed reads for lost
// entities report the gap, and healthy-shard routing keeps answering
// exactly.
func TestShardLossDegradedServing(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	single := newSingle(t, cfg, 4)
	ss := newSharded(t, cfg, 4, 4)

	const dead = 2
	if err := ss.KillShard(dead); err != nil {
		t.Fatal(err)
	}
	if got := ss.DownShards(); !reflect.DeepEqual(got, []int{dead}) {
		t.Fatalf("DownShards = %v", got)
	}

	// Fan-out read: partial result + typed degraded error.
	const q = "SELECT entity, attribute, value FROM extracted ORDER BY entity, attribute, qualifier"
	rs, err := ss.SQL(ctx, q)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("want DegradedError, got %v", err)
	}
	if !reflect.DeepEqual(de.Down, []int{dead}) || de.Shards != 4 {
		t.Fatalf("degraded marker %+v", de)
	}
	if rs == nil || len(rs.Rows) == 0 {
		t.Fatal("no partial result served")
	}
	full, err := single.SQL(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) >= len(full.Rows) {
		t.Fatalf("partial (%d rows) not smaller than full (%d rows)", len(rs.Rows), len(full.Rows))
	}
	// The partial stream is exactly the full stream minus the dead
	// shard's entities — surviving rows are not reordered or dropped.
	aliveRows := map[string]int{}
	for _, row := range full.Rows {
		if ss.Owner(row[0].S) != dead {
			aliveRows[renderTuple(row)]++
		}
	}
	for _, row := range rs.Rows {
		k := renderTuple(row)
		if aliveRows[k] == 0 {
			t.Fatalf("partial result contains unexpected row %q", k)
		}
		aliveRows[k]--
	}
	for k, c := range aliveRows {
		if c != 0 {
			t.Fatalf("partial result missing surviving row %q", k)
		}
	}

	// Keyword search: the healthy shards' hits, marked partial — the
	// single engine's full ranking without the dead shard's documents,
	// first k, scores ==.
	dropped := 0
	for _, q := range []string{"madison", "temperature march", "population founded", "university"} {
		hits, err := ss.KeywordSearch(ctx, q, 5)
		if !errors.As(err, &de) || !reflect.DeepEqual(de.Down, []int{dead}) {
			t.Fatalf("search %q under shard loss: want DegradedError down [%d], got %v", q, dead, err)
		}
		want, d := healthyHits(t, single, ss, dead, q, 5)
		if !sameHits(hits, want) {
			t.Fatalf("search %q under shard loss\n got %+v\nwant %+v", q, hits, want)
		}
		dropped += d
	}
	if dropped == 0 {
		t.Fatal("no full top k held a document of the dead shard: the check compared complete answers")
	}

	// Entity-routed read on a lost entity: typed gap; on a healthy
	// entity: exact answer.
	var lost, alive string
	for i := 0; i < 1000; i++ {
		e := fmt.Sprintf("probe-%d", i)
		if ss.Owner(e) == dead && lost == "" {
			lost = e
		}
		if ss.Owner(e) != dead && alive == "" {
			alive = e
		}
	}
	if _, err := ss.SQL(ctx, fmt.Sprintf("SELECT value FROM extracted WHERE entity = '%s'", lost)); !errors.As(err, &de) {
		t.Fatalf("routed read to dead shard: want DegradedError, got %v", err)
	}
	if _, err := ss.SQL(ctx, fmt.Sprintf("SELECT value FROM extracted WHERE entity = '%s'", alive)); err != nil {
		t.Fatalf("routed read to healthy shard: %v", err)
	}

	// Guided flow: candidates still come from the merged healthy
	// catalog; answer is partial with the gap marked.
	ga, err := ss.AskGuided(ctx, "temperature", 3)
	if !errors.As(err, &de) {
		t.Fatalf("ask guided: want DegradedError, got %v", err)
	}
	if ga == nil || len(ga.Candidates) == 0 {
		t.Fatal("ask guided served nothing")
	}

	// Killing everything flips the backend to closed.
	for i := 0; i < 4; i++ {
		ss.KillShard(i)
	}
	if _, err := ss.SQL(ctx, q); !errors.Is(err, core.ErrClosed) && !errors.As(err, &de) {
		t.Fatalf("all-shards-down read: %v", err)
	}
	if !ss.Closing() {
		t.Fatal("all shards down should report closing")
	}
}

func renderTuple(row rdbms.Tuple) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// TestShardedDurableReopen: a durable layout reopens warm with the same
// shard count and refuses a mismatched one.
func TestShardedDurableReopen(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	dir := t.TempDir()

	ss, err := Open(Config{Shards: 2, Dir: dir, System: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ss.BulkIngest(ctx, "city", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 {
		t.Fatal("ingest loaded nothing")
	}
	wantRows, err := ss.ExtractedRows()
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	// The refusal is typed: callers distinguish "layout pinned to a
	// different count" from any other open failure.
	var mm *ShardCountMismatchError
	if _, err := Open(Config{Shards: 3, Dir: dir, System: cfg}); err == nil {
		t.Fatal("mismatched shard count must refuse to open")
	} else if !errors.As(err, &mm) {
		t.Fatalf("mismatch error %v is not a ShardCountMismatchError", err)
	} else if mm.Pinned != 2 || mm.Asked != 3 || mm.Dir != dir {
		t.Fatalf("mismatch error carries pinned=%d asked=%d dir=%q, want 2/3/%q", mm.Pinned, mm.Asked, mm.Dir, dir)
	}

	ss2, err := Open(Config{Shards: 2, Dir: dir, System: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	gotRows, err := ss2.ExtractedRows()
	if err != nil {
		t.Fatal(err)
	}
	if gotRows != wantRows {
		t.Fatalf("reopened rows %d, want %d", gotRows, wantRows)
	}
	if _, err := ss2.SQL(ctx, "SELECT COUNT(*) FROM extracted"); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSubscribeAndCorrect: standing queries fan to every shard,
// so a correction on any entity fires on its owner with the common id.
func TestShardedSubscribeAndCorrect(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	ss := newSharded(t, cfg, 4, 4)

	id, err := ss.Subscribe(alert.Subscription{
		User: "watcher", Attribute: "temperature", Op: alert.OpGT, Threshold: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Fatalf("bad subscription id %d", id)
	}
	for _, f := range sampleFacts(t, ss, "temperature", 6) {
		if err := ss.CorrectValue(ctx, "auditor", f[0], "temperature", f[1], "999"); err != nil {
			t.Fatalf("correct %s/%s: %v", f[0], f[1], err)
		}
	}
	fired := 0
	for i := 0; i < 4; i++ {
		fired += len(ss.Shard(i).Alerts.History())
	}
	if fired == 0 {
		t.Fatal("no alert fired on any shard after threshold-crossing corrections")
	}
}
