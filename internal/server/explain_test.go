package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/uql"
)

// factKey addresses one stored fact.
type factKey struct{ entity, attribute, qualifier string }

// referenceLineage renders every fact of daemonProgram the way EXTRACT
// recorded lineage when it kept a graph: one document node per document,
// one extraction node per field, and the first row of a fact explained.
func referenceLineage(corpus *doc.Corpus) map[factKey]string {
	wanted := map[string]bool{"temperature": true, "population": true, "founded": true}
	hints := []string{"average temperature in", "population", "founded"}
	pipeline := extract.DefaultCityPipeline()
	g := provenance.NewGraph()
	out := map[factKey]string{}
	for _, d := range corpus.Docs() {
		if d.Meta["kind"] != "city" || !slices.ContainsFunc(hints, func(h string) bool { return strings.Contains(d.Text, h) }) {
			continue
		}
		var docNode provenance.NodeID
		for _, f := range pipeline.ExtractDoc(d) {
			if !wanted[f.Attribute] {
				continue
			}
			if docNode == 0 {
				docNode = g.MustAdd(provenance.KindDocument, d.Title, "", 0)
			}
			label := f.Attribute + "=" + f.Value
			if f.Qualifier != "" {
				label = f.Attribute + "[" + f.Qualifier + "]=" + f.Value
			}
			id := g.MustAdd(provenance.KindExtraction, label, f.Extractor, f.Conf, docNode)
			k := factKey{f.Entity, f.Attribute, f.Qualifier}
			if _, ok := out[k]; !ok {
				out[k] = g.Explain(id)
			}
		}
	}
	return out
}

// storedKeys lists the distinct stored facts.
func storedKeys(t *testing.T, sys *core.System) []factKey {
	t.Helper()
	rs, err := sys.SQL(context.Background(), "SELECT entity, attribute, qualifier FROM extracted")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[factKey]bool{}
	var keys []factKey
	for _, r := range rs.Rows {
		k := factKey{r[0].S, r[1].S, r[2].S}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// explainsAs fails unless explain answers want[k] for every key.
func explainsAs(t *testing.T, life string, want map[factKey]string, keys []factKey, explain func(factKey) (string, error)) {
	t.Helper()
	for _, k := range keys {
		got, err := explain(k)
		if err != nil || got != want[k] {
			t.Fatalf("%s: explain %v: %v\n%s\nwant:\n%s", life, k, err, got, want[k])
		}
	}
}

func openLife(t *testing.T, dir string, corpus *doc.Corpus) (*core.System, core.OpenReport) {
	t.Helper()
	sys, rep, err := core.OpenDir(dir, core.Config{Corpus: corpus, Workers: 2}, func(s *core.System) error {
		_, err := s.Generate(context.Background(), daemonProgram, uql.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, rep
}

// TestExplainEveryLife holds explain to one answer for every stored fact
// of the daemon's dataspace, in every life and layout: fresh (equal to
// the lineage EXTRACT recorded in memory), after Close and reopen, after
// a kill and recovery, over 1, 2 and 4 bulk-ingested shards, and through
// the wire. After a correction the text states the stored value over the
// unchanged extraction; after a DELETE the fact is not found.
func TestExplainEveryLife(t *testing.T) {
	ctx := context.Background()
	corpus, _ := synth.Generate(synth.Config{Seed: 7, Cities: 12, People: 5, Filler: 10, MentionsPerPerson: 2})
	ref := referenceLineage(corpus)

	dir := filepath.Join(t.TempDir(), "engine")
	sys, _ := openLife(t, dir, corpus)
	keys := storedKeys(t, sys)
	if len(keys) != len(ref) {
		t.Fatalf("%d stored facts, the reference explains %d", len(keys), len(ref))
	}
	if len(sys.Env.Relations) != 0 {
		t.Fatalf("Generate left %d relations in memory", len(sys.Env.Relations))
	}
	engineExplain := func(s *core.System) func(factKey) (string, error) {
		return func(k factKey) (string, error) { return s.ExplainFact(ctx, k.entity, k.attribute, k.qualifier) }
	}
	explainsAs(t, "fresh", ref, keys, engineExplain(sys))

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys, rep := openLife(t, dir, corpus)
	if !rep.Reopened {
		t.Fatal("the second life did not reopen")
	}
	explainsAs(t, "reopened", ref, keys, engineExplain(sys))

	killedDir := filepath.Join(t.TempDir(), "killed")
	killed, _ := openLife(t, killedDir, corpus)
	for killed.InFlightOps() > 0 {
		// A background checkpoint is an in-flight operation: let it end
		// before the files are abandoned.
		runtime.Gosched()
	}
	if err := killed.DB.Abandon(); err != nil {
		t.Fatal(err)
	}
	recovered, rep := openLife(t, killedDir, corpus)
	if !rep.Reopened {
		t.Fatal("the recovered life did not reopen")
	}
	explainsAs(t, "recovered", ref, keys, engineExplain(recovered))
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 4} {
		ss, err := shard.Open(shard.Config{Shards: n, System: core.Config{Corpus: corpus, Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.BulkIngest(ctx, "city", 0); err != nil {
			t.Fatal(err)
		}
		explainsAs(t, fmt.Sprintf("%d shards", n), ref, keys, func(k factKey) (string, error) {
			return ss.ExplainFact(ctx, k.entity, k.attribute, k.qualifier)
		})
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, addr := startServer(t, sys, Options{})
	cli := dialTest(t, addr)
	explainsAs(t, "wire", ref, keys, func(k factKey) (string, error) {
		return cli.Explain(ctx, k.entity, k.attribute, k.qualifier)
	})

	// A correction sits over the extraction it replaced: one temperature
	// (one stored row), one population (an infobox and a prose row), and
	// one that keeps the extracted value at the corrector's confidence.
	july, err := cli.SQL(ctx, "SELECT value FROM extracted WHERE entity = 'Madison, Wisconsin' AND attribute = 'temperature' AND qualifier = 'July'")
	if err != nil || len(july.Rows) != 1 {
		t.Fatalf("July: %v %+v", err, july)
	}
	weight := sys.Users.Weight("editor")
	for _, c := range []struct {
		k     factKey
		value string
	}{
		{factKey{"Madison, Wisconsin", "temperature", "September"}, "999"},
		{factKey{"Madison, Wisconsin", "population", ""}, "999"},
		{factKey{"Madison, Wisconsin", "temperature", "July"}, july.Rows[0][0]},
	} {
		k := c.k
		if err := cli.Correct(ctx, "editor", k.entity, k.attribute, k.qualifier, c.value); err != nil {
			t.Fatal(err)
		}
		label := k.attribute + "=" + c.value
		if k.qualifier != "" {
			label = k.attribute + "[" + k.qualifier + "]=" + c.value
		}
		want := fmt.Sprintf("- [feedback] stored %s (conf %.2f)\n  %s\n",
			label, weight, strings.ReplaceAll(strings.TrimSuffix(ref[k], "\n"), "\n", "\n  "))
		got, err := cli.Explain(ctx, k.entity, k.attribute, k.qualifier)
		if err != nil || got != want {
			t.Fatalf("explain %v after correction: %v\n%s\nwant:\n%s", k, err, got, want)
		}
	}

	if _, err := cli.SQL(ctx, "DELETE FROM extracted WHERE entity = 'Madison, Wisconsin' AND attribute = 'temperature' AND qualifier = 'September'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Explain(ctx, "Madison, Wisconsin", "temperature", "September"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("explain of a deleted fact: got %v, want ErrNotFound", err)
	}
	if _, err := sys.ExplainFact(ctx, "Madison, Wisconsin", "temperature", "September"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("engine explain of a deleted fact: got %v, want core.ErrNotFound", err)
	}
}

// TestExplainAndCorrectMissingFactNotFound: explain and correct of a fact
// that is not stored answer the typed not-found code on one engine and
// on 2 shards, and so does explain of a stored fact no document
// re-derives.
func TestExplainAndCorrectMissingFactNotFound(t *testing.T) {
	ctx := context.Background()
	single := newTestSystem(t, 6)
	_, addr := startServer(t, single, Options{})
	_, shardedAddr := startServer(t, newShardedBackend(t, 6, 2), Options{})
	for _, addr := range []string{addr, shardedAddr} {
		cli := dialTest(t, addr)
		if _, err := cli.Explain(ctx, "Nowhere", "temperature", "July"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("explain of a missing fact: got %v, want ErrNotFound", err)
		}
		if err := cli.Correct(ctx, "alice", "Nowhere", "temperature", "July", "1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("correct of a missing fact: got %v, want ErrNotFound", err)
		}
	}
	cli := dialTest(t, addr)
	if _, err := cli.SQL(ctx, "INSERT INTO extracted VALUES ('Nowhere', 'temperature', 'July', '1', 1.0, 0.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Explain(ctx, "Nowhere", "temperature", "July"); !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "no document re-derives") {
		t.Fatalf("explain of an inserted fact: got %v, want ErrNotFound (no document re-derives)", err)
	}
}

// TestCorrectEveryStoredRow: the city pipeline stores Madison's
// population twice (infobox and prose), and a correction rewrites both,
// on one engine and on 2 shards, so no read finds the replaced value.
func TestCorrectEveryStoredRow(t *testing.T) {
	ctx := context.Background()
	const q = "SELECT value, num FROM extracted WHERE entity = 'Madison, Wisconsin' AND attribute = 'population'"
	for _, b := range []struct {
		name string
		sys  Backend
	}{
		{"one engine", newTestSystem(t, 12)},
		{"2 shards", newShardedBackend(t, 12, 2)},
	} {
		t.Cleanup(func() { b.sys.Close() })
		before, err := b.sys.SQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(before.Rows) < 2 {
			t.Fatalf("%s: %d population rows stored; the test needs a fact stored twice", b.name, len(before.Rows))
		}
		if err := b.sys.CorrectValue(ctx, "editor", "Madison, Wisconsin", "population", "", "999"); err != nil {
			t.Fatal(err)
		}
		after, err := b.sys.SQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(after.Rows) != len(before.Rows) {
			t.Fatalf("%s: %d rows after the correction, %d before", b.name, len(after.Rows), len(before.Rows))
		}
		for _, r := range after.Rows {
			if r[0].S != "999" || r[1].F != 999 {
				t.Fatalf("%s: a row still reads %v after the correction: %v", b.name, r, after.Rows)
			}
		}
	}
}
