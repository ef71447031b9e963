package shard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/uql"
)

// sameHits compares two hit lists exactly: scores by ==, and nil apart
// from empty.
func sameHits(got, want []search.Hit) bool {
	return (got == nil) == (want == nil) && reflect.DeepEqual(got, want)
}

// searchQueries returns keyword queries of every synth document shape:
// the served search and ask shapes for every stride-th city, person
// surface forms, filler topics, repeated terms, and a query no document
// matches.
func searchQueries(truth *synth.Truth, stride int) []string {
	var qs []string
	for i := 0; i < len(truth.Cities); i += stride {
		c := truth.Cities[i]
		month := synth.Months[i%12]
		qs = append(qs,
			fmt.Sprintf("%s %s temperature", c.Name, month),
			fmt.Sprintf("average %s temperature %s %s", month, c.Name, c.State),
			fmt.Sprintf("%s %s %s", c.Name, c.Name, month),
		)
	}
	for _, p := range truth.People {
		for _, m := range p.Mentions {
			qs = append(qs, m.Surface+" born", m.Surface)
		}
	}
	return append(qs,
		"history practice archives", "records regional archives period",
		"population founded", "temperature temperature degrees",
		"shoreline", "twin lakes shoreline shoreline", "zzz qqq",
	)
}

// TestShardedSearchMatchesSingle: keyword search over 1, 2 and 4 shards
// returns a single engine's hits — DocIDs, titles, snippets, order, and
// scores equal bit for bit. BM25 runs the served path
// (ShardedSystem.KeywordSearch); TF-IDF merges the shards' own
// partitions. Eight twin documents with one text spread equal scores
// across shards. Over more than one shard the run must meet a query term
// only some shards know, a k above one shard's hit count, and a score tie
// between shards. Under -race it takes every tenth city.
func TestShardedSearchMatchesSingle(t *testing.T) {
	corpus, truth := synth.Generate(synth.Config{Seed: 11, Cities: 120, People: 12, Filler: 20, MentionsPerPerson: 2})
	for i := 0; i < 8; i++ {
		corpus.Add(doc.Document{Title: fmt.Sprintf("Twin %d", i), Text: "Twin lakes share one shoreline. The shoreline is cold."})
	}
	ctx := context.Background()
	single, err := core.New(core.Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	stride := 1
	if raceEnabled {
		stride = 10
	}
	queries := searchQueries(truth, stride)

	for _, n := range []int{1, 2, 4} {
		ss, err := Open(Config{Shards: n, System: core.Config{Corpus: corpus}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		var partial, short, ties, searches int
		for _, q := range queries {
			for _, k := range []int{1, 5, 50} {
				want, err := single.KeywordSearch(ctx, q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ss.KeywordSearch(ctx, q, k)
				if err != nil {
					t.Fatalf("shards=%d search %q: %v", n, q, err)
				}
				if !sameHits(got, want) {
					t.Fatalf("shards=%d BM25 %q k=%d\n got %+v\nwant %+v", n, q, k, got, want)
				}

				lists := make([][]search.Hit, n)
				for i := range lists {
					lists[i] = ss.Shard(i).Index.Search(q, k, search.TFIDF)
				}
				merged := search.MergeHits(k, lists...)
				if want := single.Index.Search(q, k, search.TFIDF); !sameHits(merged, want) {
					t.Fatalf("shards=%d TF-IDF %q k=%d\n got %+v\nwant %+v", n, q, k, merged, want)
				}
				searches += 2

				if k == 1 && someShardsKnow(ss, q) {
					partial++
				}
				if slices.ContainsFunc(lists, func(l []search.Hit) bool { return len(l) < k && len(l) < len(merged) }) {
					short++
				}
				for i := 1; i < len(merged); i++ {
					if merged[i].Score == merged[i-1].Score && ss.Owner(merged[i].Title) != ss.Owner(merged[i-1].Title) {
						ties++
					}
				}
			}
		}
		t.Logf("shards=%d: %d searches matched; %d with a term only some shards know, %d with k above a shard's hits, %d cross-shard ties",
			n, searches, partial, short, ties)
		if n > 1 && (partial == 0 || short == 0 || ties == 0) {
			t.Fatalf("shards=%d: the queries missed a case: partial=%d short=%d ties=%d", n, partial, short, ties)
		}
	}
}

// TestShardedCatalogEpochUnderWrites: while asks and catalog reads run,
// a goroutine writes a new entity through each shard in turn; once the
// writes are done, the merged catalog is the union of the shards' own.
// The merged reformulator is memoized by the shards' catalog epochs, so
// an epoch read apart from its catalog could key the pre-write merge
// with the post-write epoch. The writes STORE rows, which update the
// shard's catalog cache in place without a rescan, so nothing would
// advance the epoch again: the stale merge would be served until the
// next catalog change.
func TestShardedCatalogEpochUnderWrites(t *testing.T) {
	cfg := newCorpusConfig(t)
	ctx := context.Background()
	ss := newSharded(t, cfg, 2, 2)
	next := 0
	for round := 0; round < 20; round++ {
		// One new entity per shard, handed to it as a UQL relation.
		rel := fmt.Sprintf("epoch%d", round)
		entities := make([]string, ss.Shards())
		for left := len(entities); left > 0; next++ {
			e := fmt.Sprintf("Epoch Town %d", next)
			if o := ss.Owner(e); entities[o] == "" {
				entities[o] = e
				ss.Shard(o).Env.Relations[rel] = []uql.Row{{Entity: e, Attribute: "population", Value: "5", Conf: 0.9}}
				left--
			}
		}
		done := make(chan error, 1)
		go func() {
			for i := range entities {
				if _, err := ss.Shard(i).Generate(ctx, "STORE "+rel+" INTO TABLE extracted;", uql.Options{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for writing, i := true, 0; writing; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				writing = false
			default:
			}
			var err error
			if i%4 == 0 {
				_, err = ss.AskGuided(ctx, "population", 3)
			} else {
				_, err = ss.Catalog(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		got, err := ss.Catalog(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ents, attrs, quals := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for i := 0; i < ss.Shards(); i++ {
			cat, err := ss.Shard(i).Catalog(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range cat.Entities {
				ents[e] = true
			}
			for _, a := range cat.Attributes {
				attrs[a] = true
			}
			for a, qs := range cat.Qualifiers {
				for _, q := range qs {
					quals[a+"\x00"+q] = true
				}
			}
		}
		gotQuals := map[string]bool{}
		for a, qs := range got.Qualifiers {
			for _, q := range qs {
				gotQuals[a+"\x00"+q] = true
			}
		}
		for i, e := range entities {
			if !slices.Contains(got.Entities, e) {
				t.Fatalf("round %d: merged catalog misses %q written through shard %d", round, e, i)
			}
		}
		if !reflect.DeepEqual(got.Entities, sortedKeys(ents)) || !reflect.DeepEqual(got.Attributes, sortedKeys(attrs)) ||
			!reflect.DeepEqual(gotQuals, quals) {
			t.Fatalf("round %d: merged catalog is not the union of the shards' catalogs", round)
		}
	}
}

// someShardsKnow reports whether one of q's terms is indexed on some
// shards but not on others.
func someShardsKnow(ss *ShardedSystem, q string) bool {
	for _, term := range strings.Fields(q) {
		known := 0
		for i := 0; i < ss.Shards(); i++ {
			if len(ss.Shard(i).Index.Search(term, 1, search.BM25)) > 0 {
				known++
			}
		}
		if known > 0 && known < ss.Shards() {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// healthyHits is the single engine's full ranking for q with the
// documents of the shards down dropped, first k: what a degraded sharded
// search must return, scores and all.
func healthyHits(t *testing.T, single *core.System, ss *ShardedSystem, down int, q string, k int) (hits []search.Hit, dropped int) {
	t.Helper()
	full, err := single.KeywordSearch(context.Background(), q, single.Corpus.Len())
	if err != nil {
		t.Fatal(err)
	}
	if full != nil {
		hits = []search.Hit{}
	}
	for _, h := range full {
		if ss.Owner(h.Title) == down {
			if len(hits) < k {
				dropped++
			}
			continue
		}
		if len(hits) < k {
			hits = append(hits, h)
		}
	}
	return hits, dropped
}
