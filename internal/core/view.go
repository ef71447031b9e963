package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/browse"
	"repro/internal/doc"
	"repro/internal/extract"
	"repro/internal/provenance"
	"repro/internal/rdbms"
	"repro/internal/search"
	"repro/internal/uql"
)

// View is a consistent read-only handle over the system: every query it
// serves — guided, keyword, SQL, browse, lineage — observes the extracted
// structure exactly as of one commit LSN, pinned when the View began.
// Concurrent writers keep committing; the View keeps answering from its
// snapshot, with zero lock-manager acquisitions (reads resolve row
// visibility through the MVCC version store instead of taking locks).
//
// A View counts as one in-flight serving operation from creation until
// Close: the system's graceful drain waits for open Views, and the version
// store's GC horizon cannot pass the View's LSN while it is open — so
// close Views promptly. A View is not safe for concurrent use by multiple
// goroutines; open one View per goroutine (they are cheap).
type View struct {
	s    *System
	snap *rdbms.Snap
	ctx  context.Context

	// cat is the catalog generation this View reformulates with, fetched
	// lazily on the first AskGuided so keyword-only and SQL-only Views
	// never pay for a catalog rebuild.
	cat    *catSnap
	closed atomic.Bool
}

// View opens a read-only snapshot handle at the current commit horizon.
// ctx governs every operation on the returned View (deadlines cut scans
// off mid-flight). The caller must Close it.
func (s *System) View(ctx context.Context) (*View, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		s.endOp()
		return nil, err
	}
	return &View{s: s, ctx: ctx, snap: s.DB.BeginSnapshot().WithContext(ctx)}, nil
}

// LSN reports the commit LSN this View is pinned at: it sees exactly the
// transactions whose commit records fall at or before this point.
func (v *View) LSN() rdbms.LSN { return v.snap.LSN() }

// Close releases the snapshot (unpinning the version-store GC horizon) and
// the View's in-flight-operation slot. Idempotent.
func (v *View) Close() {
	if !v.closed.CompareAndSwap(false, true) {
		return
	}
	v.snap.Close()
	v.s.endOp()
}

// errViewClosed guards use-after-Close uniformly across View methods.
func (v *View) err() error {
	if v.closed.Load() {
		return fmt.Errorf("core: view is closed")
	}
	return v.ctx.Err()
}

// reform returns the View's pinned catalog generation, fetching it on
// first use. The fetch is one atomic load on the fast path; only the
// first reformulation after an invalidating write rebuilds the catalog.
func (v *View) reform() (*catSnap, error) {
	if v.cat == nil {
		cs, err := v.s.catalogSnap()
		if err != nil {
			return nil, err
		}
		v.cat = cs
	}
	return v.cat, nil
}

// KeywordSearch is the View-scoped exploitation mode 1: ranked document
// hits. The document index is not versioned: a search sees the documents
// of the last RefreshChanged, which swaps the whole index at once.
func (v *View) KeywordSearch(query string, k int) ([]search.Hit, error) {
	if err := v.err(); err != nil {
		return nil, err
	}
	v.s.Stats.Inc("core.queries.keyword", 1)
	return v.s.Index.Search(query, k, search.BM25), nil
}

// AskGuided is the View-scoped exploitation mode 2: reformulate a keyword
// query into candidate structured queries and execute the best one at the
// View's LSN. Unlike the one-shot System.AskGuided it does not boost
// extraction demand — a pinned View is an observer, not a workload signal.
func (v *View) AskGuided(query string, k int) (*GuidedAnswer, error) {
	if err := v.err(); err != nil {
		return nil, err
	}
	cs, err := v.reform()
	if err != nil {
		return nil, err
	}
	cands := cs.reform.Candidates(query, k)
	out := &GuidedAnswer{Candidates: cands}
	if len(cands) == 0 {
		return out, nil
	}
	v.s.Stats.Inc("core.queries.guided", 1)
	top := cands[0]
	rs, err := v.snap.Query(top.SQL)
	if err != nil {
		return nil, fmt.Errorf("core: executing %q: %w", top.SQL, err)
	}
	out.Answer = rs
	out.Coverage = v.s.Coverage(top.Attribute)
	return out, nil
}

// ExecSelect is the View-scoped exploitation mode 3: an already parsed
// SELECT runs against the snapshot with zero lock acquisitions. Only a
// SELECT can be handed in — route writes through System.SQL.
func (v *View) ExecSelect(sel rdbms.SelectStmt) (*rdbms.ResultSet, error) {
	if err := v.err(); err != nil {
		return nil, err
	}
	v.s.Stats.Inc("core.queries.sql", 1)
	return v.snap.ExecSelect(sel)
}

// AggregatePartial runs a grouped SELECT's partial step at the View's
// snapshot; rdbms.FinishAggregate merges partials into the answer.
func (v *View) AggregatePartial(sel rdbms.SelectStmt) (*rdbms.AggPartial, error) {
	if err := v.err(); err != nil {
		return nil, err
	}
	v.s.Stats.Inc("core.queries.sql", 1)
	return v.snap.AggregatePartial(sel)
}

// Browse is the View-scoped exploitation mode 4: a faceted browser built
// from one snapshot scan, so its facets describe exactly the structure at
// the View's LSN. The scan hands over encoded records, and the Builder
// interns their string columns straight from the record bytes: no row is
// decoded. As with a decoded row's t[i].S and t[5].F, a non-string
// entity, attribute, qualifier or value reads as "" and a non-float conf
// as 0.
func (v *View) Browse() (*browse.Browser, error) {
	if err := v.err(); err != nil {
		return nil, err
	}
	var bd browse.Builder
	// The entity index counts the table's rows: a size hint that spares
	// the builder its column regrowth.
	if t := v.s.DB.Table(TableName); t != nil && t.Indexes["entity"] != nil {
		bd.Grow(t.Indexes["entity"].Len())
	}
	var recErr error
	err := v.snap.ScanRecords(TableName, func(_ rdbms.RID, rec []byte) bool {
		var scratch [8]rdbms.Field
		fields, err := rdbms.SplitRecord(rec, scratch[:0])
		if err != nil {
			recErr = err
			return false
		}
		var str [4][]byte
		for i := 0; i < len(str) && i < len(fields); i++ {
			str[i] = fields[i].Str()
		}
		conf := 0.0
		if len(fields) > 5 {
			conf = fields[5].Float()
		}
		bd.Add(str[0], str[1], str[2], str[3], conf)
		return true
	})
	if err == nil {
		err = recErr
	}
	if err != nil {
		return nil, err
	}
	v.s.Stats.Inc("core.queries.browse", 1)
	return bd.Browser(), nil
}

// ExplainFact renders the lineage of the fact (entity, attribute,
// qualifier) stored at the View's LSN. Lineage is re-derived, not stored:
// extraction is deterministic and every extractor names a field's entity
// after its document's title, so the document titled entity is extracted
// again and pickLineage pairs a stored row with a field. A stored value or
// confidence the extraction did not produce (a correction, a UQL ASK
// update) adds one node above the extraction that states what is stored.
// A fact not stored at the LSN, or one no document re-derives (an SQL
// INSERT, an INTEGRATE rename, a RESOLVE merge), is ErrNotFound. The
// document half reads the live corpus, which only RefreshChanged
// rewrites.
func (v *View) ExplainFact(entity, attribute, qualifier string) (string, error) {
	if err := v.err(); err != nil {
		return "", err
	}
	fact := fmt.Sprintf("%s.%s[%s]", entity, attribute, qualifier)
	stored, err := v.storedFacts(entity, attribute, qualifier)
	if err != nil {
		return "", err
	}
	if len(stored) == 0 {
		return "", fmt.Errorf("%w: no stored fact %s", ErrNotFound, fact)
	}
	d := v.s.Corpus.FindByTitle(entity)
	var fields []extract.Field
	if d != nil {
		fields = v.s.rederive(d, attribute, qualifier)
	}
	if len(fields) == 0 {
		return "", fmt.Errorf("%w: no document re-derives %s", ErrNotFound, fact)
	}
	v.s.Stats.Inc("core.queries.explain", 1)
	r, f := pickLineage(stored, fields)
	g := provenance.NewGraph()
	top := g.MustAdd(provenance.KindExtraction, factLabel(f.Attribute, f.Qualifier, f.Value), f.Extractor, f.Conf,
		g.MustAdd(provenance.KindDocument, d.Title, "", 0))
	if r.Value != f.Value || r.Conf != f.Conf {
		top = g.MustAdd(provenance.KindFeedback,
			fmt.Sprintf("stored %s (conf %.2f)", factLabel(attribute, qualifier, r.Value), r.Conf), "", 0, top)
	}
	return g.Explain(top), nil
}

// storedFacts reads the rows stored for (entity, attribute, qualifier) at
// the View's LSN through the entity index.
func (v *View) storedFacts(entity, attribute, qualifier string) ([]uql.Row, error) {
	rids, err := v.snap.IndexLookup(TableName, "entity", rdbms.NewString(entity))
	if err != nil {
		return nil, err
	}
	var out []uql.Row
	for _, rid := range rids {
		t, ok, err := v.snap.Get(TableName, rid)
		if err != nil {
			return nil, err
		}
		if ok && t[0].S == entity && t[1].S == attribute && t[2].S == qualifier {
			out = append(out, uql.Row{Entity: entity, Attribute: attribute, Qualifier: qualifier, Value: t[3].S, Conf: t[5].F})
		}
	}
	return out, nil
}

// rederive runs the registered extractors' pipelines, in extractor name
// order and scoped to attribute, over d and returns the fields for
// (attribute, qualifier) in pipeline order.
func (s *System) rederive(d *doc.Document, attribute, qualifier string) []extract.Field {
	var out []extract.Field
	for _, n := range slices.Sorted(maps.Keys(s.Env.Extractors)) {
		for _, f := range s.Env.Extractors[n].Pipeline.ForAttributes(attribute).ExtractDoc(d) {
			if f.Attribute == attribute && f.Qualifier == qualifier {
				out = append(out, f)
			}
		}
	}
	return out
}

// pickLineage pairs the stored row explain renders with the re-derived
// field under it. A row feedback changed (no field has its value and
// confidence) comes first, so a correction shows; it sits over the first
// field with its value, else the first field. When every row is an
// extraction's output, the first field, in pipeline order, that produced
// one is rendered. Both lists are non-empty.
func pickLineage(stored []uql.Row, fields []extract.Field) (uql.Row, extract.Field) {
	produced := func(r uql.Row, f extract.Field) bool { return r.Value == f.Value && r.Conf == f.Conf }
	for _, r := range stored {
		if !slices.ContainsFunc(fields, func(f extract.Field) bool { return produced(r, f) }) {
			i := slices.IndexFunc(fields, func(f extract.Field) bool { return f.Value == r.Value })
			return r, fields[max(i, 0)]
		}
	}
	for _, f := range fields {
		if i := slices.IndexFunc(stored, func(r uql.Row) bool { return produced(r, f) }); i >= 0 {
			return stored[i], f
		}
	}
	return stored[0], fields[0] // unreachable: every row matched a field above
}

// factLabel renders attribute[qualifier]=value (attribute=value without a
// qualifier), the label of an extraction node.
func factLabel(attribute, qualifier, value string) string {
	if qualifier == "" {
		return attribute + "=" + value
	}
	return attribute + "[" + qualifier + "]=" + value
}
