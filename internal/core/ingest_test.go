package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/uql"
)

// ingestLeg is one way rows enter the engine, over the engines it
// writes to.
type ingestLeg struct {
	engines   []*core.System
	sql       func(context.Context, string) (*rdbms.ResultSet, error)
	subscribe func(alert.Subscription) (int, error)
	ingest    func(context.Context) error
	close     func() error
}

// TestIngestPathsShareSideEffects: UQL STORE through Generate,
// ExtractPending, BulkLoadRows and a 2-shard BulkIngest store the same
// rows, each into engines whose catalog cache is warm and whose standing
// queries were registered before the ingest, while asks read the catalog.
// Every path must leave (a) the cache valid, never invalidated, and equal
// to a full rebuild, first-seen qualifier order included; (b) the stored
// attributes in the schema; (c) the same fired notifications as every
// other path.
func TestIngestPathsShareSideEffects(t *testing.T) {
	corpus, _ := synth.Generate(synth.Config{Seed: 23, Cities: 20, Filler: 4})
	ctx := context.Background()
	newSystem := func() *core.System {
		s, err := core.New(core.Config{Corpus: corpus})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := newSystem()
	rows, _, err := ref.ExtractAll(ctx, "city", 0)
	if err != nil {
		t.Fatal(err)
	}
	attrSet := map[string]bool{}
	for _, r := range rows {
		attrSet[r.Attribute] = true
	}
	var attrs []string
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	subs := []alert.Subscription{
		{User: "warm", Attribute: "temperature", Op: alert.OpGT, Threshold: 70},
		{User: "old", Attribute: "founded", Op: alert.OpLT, Threshold: 1850},
		{User: "madison", Entity: "Madison, Wisconsin", Attribute: "temperature", Op: alert.OpLE, Threshold: 40},
	}

	single := func(ingest func(context.Context, *core.System) error) func() ingestLeg {
		return func() ingestLeg {
			s := newSystem()
			return ingestLeg{
				engines:   []*core.System{s},
				sql:       s.SQL,
				subscribe: s.Subscribe,
				ingest:    func(ctx context.Context) error { return ingest(ctx, s) },
				close:     s.Close,
			}
		}
	}
	legs := []struct {
		name string
		open func() ingestLeg
	}{
		{"store", single(func(ctx context.Context, s *core.System) error {
			s.Env.Relations["rows"] = append([]uql.Row(nil), rows...)
			_, err := s.Generate(ctx, `STORE rows INTO TABLE extracted;`, uql.Options{})
			return err
		})},
		{"extract_pending", single(func(ctx context.Context, s *core.System) error {
			if err := s.PlanIncremental(ctx, "city", attrs, 3); err != nil {
				return err
			}
			_, err := s.ExtractPending(ctx, "city", 0)
			return err
		})},
		{"bulk_load_rows", single(func(ctx context.Context, s *core.System) error {
			_, err := s.BulkLoadRows(ctx, append([]uql.Row(nil), rows...))
			return err
		})},
		{"sharded_bulk_ingest", func() ingestLeg {
			ss, err := shard.Open(shard.Config{Shards: 2, System: core.Config{Corpus: corpus}})
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*core.System, ss.Shards())
			for i := range engines {
				engines[i] = ss.Shard(i)
			}
			return ingestLeg{
				engines:   engines,
				sql:       ss.SQL,
				subscribe: ss.Subscribe,
				ingest: func(ctx context.Context) error {
					_, err := ss.BulkIngest(ctx, "city", 0)
					return err
				},
				close: ss.Close,
			}
		}},
	}

	var wantRows, wantFired []string
	for _, tc := range legs {
		t.Run(tc.name, func(t *testing.T) {
			leg := tc.open()
			defer leg.close()
			for _, sub := range subs {
				if _, err := leg.subscribe(sub); err != nil {
					t.Fatal(err)
				}
			}
			type generation struct {
				reform    any
				published any
			}
			warm := make([]generation, len(leg.engines))
			for i, e := range leg.engines {
				if _, err := e.Catalog(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := e.AskGuided(ctx, "average temperature Madison Wisconsin", 3); err != nil {
					t.Fatal(err)
				}
				valid, reform, published := core.CatalogGeneration(e)
				if !valid || reform == nil || published == nil {
					t.Fatalf("engine %d: the catalog did not warm (valid %v)", i, valid)
				}
				warm[i] = generation{reform, published}
			}

			// Asks read the published catalog while the ingest folds into it.
			stop, asked := make(chan struct{}), make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						asked <- nil
						return
					default:
					}
					for _, e := range leg.engines {
						if _, err := e.AskGuided(ctx, "population Madison Wisconsin", 3); err != nil {
							asked <- err
							return
						}
					}
				}
			}()
			err := leg.ingest(ctx)
			close(stop)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-asked; err != nil {
				t.Fatal(err)
			}

			var fired []string
			for i, e := range leg.engines {
				// (a) Folded in place: the same reformulator and published
				// snapshot as before the ingest, and the rebuild's catalog.
				valid, reform, published := core.CatalogGeneration(e)
				if !valid || (generation{reform, published}) != warm[i] {
					t.Fatalf("engine %d: the ingest invalidated the catalog cache (valid %v)", i, valid)
				}
				cached, err := e.Catalog(ctx)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := e.RefreshCatalog(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(cached.Entities) == 0 || !reflect.DeepEqual(cached, rebuilt) {
					t.Fatalf("engine %d: the folded catalog differs from a rebuild\nfolded  %+v\nrebuilt %+v", i, cached, rebuilt)
				}
				// (b) Every attribute this engine stored is in its schema.
				rs, err := e.SQL(ctx, "SELECT DISTINCT attribute FROM extracted")
				if err != nil {
					t.Fatal(err)
				}
				known := map[string]bool{}
				for _, a := range e.Schema.Current().Attributes {
					known[a.Name] = true
				}
				for _, row := range rs.Rows {
					if !known[row[0].S] {
						t.Fatalf("engine %d: stored attribute %q is not in the schema", i, row[0].S)
					}
				}
				for _, n := range e.Alerts.History() {
					fired = append(fired, fmt.Sprintf("%s|%s|%s|%s", n.Subscription.User, n.Row.Entity, n.Row.Qualifier, n.Row.Value))
				}
			}
			sort.Strings(fired)

			rs, err := leg.sql(ctx, "SELECT entity, attribute, qualifier, value, conf FROM extracted")
			if err != nil {
				t.Fatal(err)
			}
			stored := make([]string, len(rs.Rows))
			for i, row := range rs.Rows {
				stored[i] = fmt.Sprintf("%s|%s|%s|%s|%g", row[0].S, row[1].S, row[2].S, row[3].S, row[4].F)
			}
			sort.Strings(stored)
			if len(stored) != len(rows) {
				t.Fatalf("stored %d rows, want the %d extracted", len(stored), len(rows))
			}
			// (c) Against the first leg: the same rows fire the same
			// notifications.
			if wantRows == nil {
				if len(fired) == 0 {
					t.Fatal("no standing query fired")
				}
				users := map[string]bool{}
				for _, f := range fired {
					users[strings.SplitN(f, "|", 2)[0]] = true
				}
				for _, sub := range subs {
					if !users[sub.User] {
						t.Fatalf("subscription %q never fired", sub.User)
					}
				}
				wantRows, wantFired = stored, fired
				return
			}
			if !reflect.DeepEqual(stored, wantRows) {
				t.Fatal("the leg stored other rows than the first leg")
			}
			if !reflect.DeepEqual(fired, wantFired) {
				t.Fatalf("fired %d notifications, the first leg %d:\n%v\nwant\n%v", len(fired), len(wantFired), fired, wantFired)
			}
		})
	}
}
