package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/rdbms"
)

// refShardedBrowse is ShardedView.Browse before the per-shard browsers
// were merged on their dictionary codes, kept as the reference for
// TestBrowseMatchesReference: every live shard's rows in scan order (read
// here through a plain SELECT, which decodes every row), k-way merged
// into one []browse.Row on ascending entity with ties to the lower shard.
func refShardedBrowse(t *testing.T, sv *ShardedView) *browse.Browser {
	t.Helper()
	stmt, err := rdbms.ParseSQL("SELECT entity, attribute, qualifier, value, conf FROM extracted")
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]browse.Row
	for _, v := range sv.views {
		if v == nil {
			continue
		}
		rs, err := v.ExecSelect(stmt.(rdbms.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]browse.Row, 0, len(rs.Rows))
		for _, r := range rs.Rows {
			rows = append(rows, browse.Row{
				Entity: r[0].S, Attribute: r[1].S, Qualifier: r[2].S, Value: r[3].S, Conf: r[4].F,
			})
		}
		streams = append(streams, rows)
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	all := make([]browse.Row, 0, total)
	cursors := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if cursors[i] >= len(s) {
				continue
			}
			if best < 0 || s[cursors[i]].Entity < streams[best][cursors[best]].Entity {
				best = i
			}
		}
		if best < 0 {
			break
		}
		all = append(all, streams[best][cursors[best]])
		cursors[best]++
	}
	return browse.New(all)
}

// compareBrowsers drives got and want through the same random Refine and
// Back steps and requires Rows (in order), Facets, Count and Path to be
// identical after every step.
func compareBrowsers(t *testing.T, rng *rand.Rand, got, want *browse.Browser) {
	t.Helper()
	pool := map[string][]string{}
	for _, r := range want.Rows() {
		pool["entity"] = append(pool["entity"], r.Entity)
		pool["attribute"] = append(pool["attribute"], r.Attribute)
		pool["qualifier"] = append(pool["qualifier"], r.Qualifier)
	}
	facets := []string{"entity", "attribute", "qualifier"}
	check := func(step string) {
		t.Helper()
		if g, w := got.Path(), want.Path(); g != w {
			t.Fatalf("%s: Path %q, reference %q", step, g, w)
		}
		if g, w := got.Count(), len(want.Rows()); g != w {
			t.Fatalf("%s (%s): Count %d, reference %d", step, want.Path(), g, w)
		}
		if g, w := got.Rows(), want.Rows(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s (%s): Rows diverged (%d vs %d rows)", step, want.Path(), len(g), len(w))
		}
		if g, w := got.Facets(), want.Facets(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s (%s): Facets\n got %v\nwant %v", step, want.Path(), g, w)
		}
	}
	check("fresh")
	for step := 0; step < 24; step++ {
		if rng.Intn(3) == 0 {
			if g, w := got.Back(), want.Back(); g != w {
				t.Fatalf("step %d: Back %v, reference %v", step, g, w)
			}
			check(fmt.Sprintf("step %d Back", step))
			continue
		}
		facet := facets[rng.Intn(len(facets))]
		var value string
		switch n := rng.Intn(10); {
		case n == 0:
			value = ""
		case n == 1:
			value = "no such value"
		case len(pool[facet]) > 0:
			value = pool[facet][rng.Intn(len(pool[facet]))]
		}
		if err := got.Refine(facet, value); err != nil {
			t.Fatal(err)
		}
		if err := want.Refine(facet, value); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d Refine(%s, %q)", step, facet, value))
	}
}

// TestBrowseMatchesReference: for 1-, 2- and 4-shard layouts, the browser
// merged from the shards' dictionary-coded browsers answers every
// refinement stack exactly as the []Row entity merge it replaced — over
// NULL and int values in the string and conf columns, rows corrected,
// deleted and inserted under the open view, and while a writer keeps
// correcting facts beside the reads.
func TestBrowseMatchesReference(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ss := newSharded(t, cfg, n, n)
			// The same entities on every shard, with values that tell the
			// shards apart: the merge must break entity ties to the lower
			// shard.
			for i := 0; i < n; i++ {
				for _, q := range []string{
					"INSERT INTO extracted VALUES (NULL, 'temperature', NULL, '%d', NULL, NULL)",
					"INSERT INTO extracted VALUES ('Nullton', NULL, 'July', '%d', 12.0, 2)",
				} {
					q = fmt.Sprintf(q, i)
					if _, err := ss.Shard(i).SQL(ctx, q); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
				}
			}
			// The schema's checks refuse ints in string columns, so this
			// row goes straight into shard 0's heap, unversioned.
			if _, err := ss.Shard(0).DB.Table(core.TableName).Heap.Insert(rdbms.Tuple{
				rdbms.NewInt(5), rdbms.NewString("population"), rdbms.NewInt(7),
				rdbms.NewBool(true), rdbms.Null(), rdbms.NewInt(3),
			}); err != nil {
				t.Fatal(err)
			}
			rs, err := ss.SQL(ctx, "SELECT entity, value FROM extracted WHERE attribute = 'population' ORDER BY entity LIMIT 40")
			if err != nil {
				t.Fatal(err)
			}
			var pops [][2]string
			for _, r := range rs.Rows {
				pops = append(pops, [2]string{r[0].S, r[1].S})
			}
			if len(pops) < 20 {
				t.Fatalf("only %d population facts", len(pops))
			}
			// value returns a random population as long as old, so a
			// correction rewrites its row in place.
			value := func(rng *rand.Rand, old string) string {
				b := make([]byte, len(old))
				for i := range b {
					b[i] = byte('1' + rng.Intn(9))
				}
				return string(b)
			}

			sv, err := ss.View(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			// Committed under the view: corrections (each grows its row by
			// a digit, which may move it), deletes and inserts.
			rng := rand.New(rand.NewSource(int64(n)))
			for _, f := range pops[:5] {
				if err := ss.CorrectValue(ctx, "alice", f[0], "population", "", value(rng, f[1]+"0")); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range pops[5:8] {
				q := fmt.Sprintf("DELETE FROM extracted WHERE entity = '%s' AND attribute = 'population'", f[0])
				if _, err := ss.Shard(ss.Owner(f[0])).SQL(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			for i := 0; i < 6; i++ {
				e := fmt.Sprintf("Lateville %d", i)
				q := fmt.Sprintf("INSERT INTO extracted VALUES ('%s', 'temperature', 'May', '%d', %d.0, 1.0)", e, 60+i, 60+i)
				if _, err := ss.Shard(ss.Owner(e)).SQL(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}

			for trial := 0; trial < 6; trial++ {
				got, err := sv.Browse()
				if err != nil {
					t.Fatal(err)
				}
				compareBrowsers(t, rng, got, refShardedBrowse(t, sv))
			}

			// A writer keeps correcting populations beside the reads, to
			// values of the same length: rows rewritten in place,
			// invisible to sv.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var written atomic.Int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(100 + int64(n)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					f := pops[8+i%(len(pops)-8)]
					if err := ss.CorrectValue(ctx, "bob", f[0], "population", "", value(wrng, f[1])); err != nil {
						t.Error(err)
						return
					}
					written.Add(1)
				}
			}()
			for trial := 0; trial < 6 || (written.Load() < 30 && trial < 1000); trial++ {
				got, err := sv.Browse()
				if err != nil {
					t.Fatal(err)
				}
				compareBrowsers(t, rng, got, refShardedBrowse(t, sv))
			}
			close(stop)
			wg.Wait()
		})
	}
}
