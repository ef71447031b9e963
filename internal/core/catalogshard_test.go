package core_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/reformulate"
	"repro/internal/shard"
	"repro/internal/synth"
)

// TestShardedCatalogRebuildMatchesReference is the sharded case of
// TestCatalogRebuildMatchesReference: over 1, 2 and 4 shards,
// ShardedSystem.Catalog (each shard's catalog built by the record scan)
// equals the merge of every shard's decoded reference rebuild — sorted
// entity and attribute unions, qualifier vocabularies merged shard-major
// in first-seen order.
func TestShardedCatalogRebuildMatchesReference(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{
		Seed: 5, Cities: 24, People: 4, Filler: 6, MentionsPerPerson: 2,
	})
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		ss, err := shard.Open(shard.Config{Shards: n, System: core.Config{Corpus: corpus}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.BulkIngest(ctx, "city", 0); err != nil {
			t.Fatal(err)
		}
		got, err := ss.Catalog(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := reformulate.Catalog{Table: core.TableName, Qualifiers: map[string][]string{}}
		ents, attrs, quals := map[string]bool{}, map[string]bool{}, map[string]map[string]bool{}
		for i := 0; i < n; i++ {
			ref, err := core.ReferenceCatalog(ss.Shard(i).DB)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ref.Entities {
				if !ents[e] {
					ents[e] = true
					want.Entities = append(want.Entities, e)
				}
			}
			for _, a := range ref.Attributes {
				if !attrs[a] {
					attrs[a] = true
					want.Attributes = append(want.Attributes, a)
				}
			}
			for a, vocab := range ref.Qualifiers {
				if quals[a] == nil {
					quals[a] = map[string]bool{}
				}
				for _, q := range vocab {
					if !quals[a][q] {
						quals[a][q] = true
						want.Qualifiers[a] = append(want.Qualifiers[a], q)
					}
				}
			}
		}
		sort.Strings(want.Entities)
		sort.Strings(want.Attributes)
		if len(want.Entities) == 0 || len(want.Qualifiers) == 0 {
			t.Fatalf("%d shards: ingest produced an empty catalog", n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: merged catalog differs from the merged references\ngot  %+v\nwant %+v", n, got, want)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
