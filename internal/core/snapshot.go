package core

import (
	"errors"
	"fmt"

	"repro/internal/uql"
	"repro/internal/vstore"
)

// Snapshot support: the paper's storage layer keeps daily crawls of the
// unstructured sources in a Subversion-like store. CommitSnapshot records
// a crawl; RefreshChanged re-extracts only the documents whose text
// changed since the last refresh, updates the final structure, and lets
// standing alerts fire on the new values — the full
// crawl -> diff-store -> re-extract -> alert loop.

// Snapshots returns the versioned store, initializing it with the current
// corpus on first use.
func (s *System) Snapshots() *vstore.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapshots == nil {
		s.snapshots = vstore.NewStore()
		texts := make(map[string]string, s.Corpus.Len())
		for _, d := range s.Corpus.Docs() {
			texts[d.Title] = d.Text
		}
		s.snapshots.Commit(texts)
	}
	return s.snapshots
}

// CommitSnapshot records a new crawl (texts keyed by document title) in
// the versioned store and returns its revision. Document content is not
// applied to the live corpus until RefreshChanged.
func (s *System) CommitSnapshot(texts map[string]string) vstore.Revision {
	store := s.Snapshots()
	rev := store.Commit(texts)
	s.Stats.Inc("core.snapshots.committed", 1)
	return rev
}

// ErrGivenIndex is RefreshChanged's refusal on a System whose keyword
// index came from Config.Index (a shard's partition): rebuilding it over
// the whole corpus would silently un-partition it.
var ErrGivenIndex = errors.New("core: RefreshChanged cannot rebuild a keyword index given in Config.Index")

// RefreshChanged applies the head snapshot to the corpus: documents whose
// text changed are re-extracted with the named extractor (all of its
// scoped attributes), their old rows replaced, and alerts evaluated on
// the new rows. It returns the titles of the refreshed documents. A
// System given its keyword index refuses with ErrGivenIndex before it
// changes anything.
func (s *System) RefreshChanged(extractor string) ([]string, error) {
	if s.givenIndex {
		return nil, ErrGivenIndex
	}
	reg, ok := s.Env.Extractors[extractor]
	if !ok {
		return nil, fmt.Errorf("core: unknown extractor %q", extractor)
	}
	store := s.Snapshots()
	var changed []string
	for _, d := range s.Corpus.Docs() {
		head, ok := store.CheckoutHead(d.Title)
		if !ok || head == d.Text {
			continue
		}
		d.Text = head
		changed = append(changed, d.Title)

		// Replace this entity's extracted rows. The DELETE removes rows the
		// incremental catalog cache cannot un-see (addRow only adds), so
		// invalidate it and unpublish the snapshot asks read; the following
		// ingest folds nothing into an invalid cache and the next catalog
		// read rescans.
		if _, err := s.DB.Exec(fmt.Sprintf(
			"DELETE FROM %s WHERE entity = '%s'", TableName, sqlEscape(d.Title))); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.cat.invalidate()
		s.dropCatSnapLocked()
		s.mu.Unlock()
		var rows []uql.Row
		for _, f := range reg.Pipeline.ExtractDoc(d) {
			rows = append(rows, fieldRow(f))
		}
		if err := s.ingest(rows, "core.materialized.rows", nil); err != nil {
			return nil, err
		}
	}
	if len(changed) > 0 {
		// The inverted index has no in-place update; rebuild it off to the
		// side and swap it in, so keyword search reflects the refreshed
		// text. The index keeps the texts it was built from, so a search
		// running now never reads a Document this loop rewrote.
		s.Index.Rebuild(s.Corpus)
		s.Stats.Inc("core.snapshots.refreshed_docs", int64(len(changed)))
	}
	return changed, nil
}

func sqlEscape(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		if v[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, v[i])
	}
	return string(out)
}
