package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/alert"
	"repro/internal/doc"
	"repro/internal/search"
)

func TestSnapshotRefreshLoop(t *testing.T) {
	s, truth := newSystem(t, 8, 0, 0)
	// Initial generation.
	s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 2)
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	// A standing alert on extreme July heat.
	if _, err := s.Subscribe(alert.Subscription{
		User: "watcher", Attribute: "temperature", Op: alert.OpGT, Threshold: 100,
	}); err != nil {
		t.Fatal(err)
	}
	firedBefore := s.Stats.Counter("core.alerts.fired")

	// Day 2 crawl: Madison's July line changes to 104 degrees.
	madison := s.Corpus.FindByTitle("Madison, Wisconsin")
	newText := strings.Replace(madison.Text,
		"The average temperature in July is 73.0 degrees Fahrenheit.",
		"The average temperature in July is 104.0 degrees Fahrenheit.", 1)
	if newText == madison.Text {
		t.Fatal("test setup: July line not found")
	}
	rev := s.CommitSnapshot(map[string]string{"Madison, Wisconsin": newText})
	if rev != 2 {
		t.Fatalf("revision = %d, want 2 (1 was the initial corpus)", rev)
	}

	changed, err := s.RefreshChanged("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != "Madison, Wisconsin" {
		t.Fatalf("changed: %v", changed)
	}
	// The structure reflects the new value.
	rs, err := s.SQL(context.Background(), `SELECT value FROM extracted
		WHERE entity = 'Madison, Wisconsin' AND qualifier = 'July'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "104.0" {
		t.Fatalf("refreshed value: %v", rs.Rows)
	}
	// No duplicate rows for the refreshed entity.
	rs, _ = s.SQL(context.Background(), `SELECT COUNT(*) FROM extracted
		WHERE entity = 'Madison, Wisconsin' AND attribute = 'temperature'`)
	if rs.Rows[0][0].I != 12 {
		t.Fatalf("temperature rows after refresh: %v", rs.Rows)
	}
	// The alert fired on the refreshed extraction.
	if s.Stats.Counter("core.alerts.fired") <= firedBefore {
		t.Fatal("alert did not fire on refreshed value")
	}
	// Keyword search sees the refreshed text.
	hits, err := s.KeywordSearch(context.Background(), "104.0 degrees July", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("index not rebuilt: %+v", hits)
	}
	// Other cities' ground truth is untouched.
	other := truth.Cities[1]
	rs, _ = s.SQL(context.Background(), "SELECT COUNT(*) FROM extracted WHERE entity = '"+other.Title+"' AND attribute = 'temperature'")
	if rs.Rows[0][0].I != 12 {
		t.Fatalf("unchanged city lost rows: %v", rs.Rows)
	}
	// History is preserved in the versioned store.
	old, ok := s.Snapshots().Checkout("Madison, Wisconsin", 1)
	if !ok || !strings.Contains(old, "73.0 degrees") {
		t.Fatal("revision 1 lost")
	}
}

func TestRefreshNoChangesIsNoop(t *testing.T) {
	s, _ := newSystem(t, 4, 0, 0)
	s.PlanIncremental(context.Background(), "city", []string{"temperature"}, 1)
	s.ExtractPending(context.Background(), "city", 0)
	s.Snapshots() // initialize with current corpus
	changed, err := s.RefreshChanged("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("nothing changed but refresh touched: %v", changed)
	}
}

func TestRefreshUnknownExtractor(t *testing.T) {
	s, _ := newSystem(t, 3, 0, 0)
	if _, err := s.RefreshChanged("ghost"); err == nil {
		t.Fatal("unknown extractor should error")
	}
}

// TestKeywordSearchBesideRefresh searches in a loop while crawls are
// committed and applied. RefreshChanged rewrites document text and
// rebuilds the index; each search must see the old index or the new one,
// and the race detector must find no unsynchronized access to either.
func TestKeywordSearchBesideRefresh(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	ctx := context.Background()
	s.PlanIncremental(ctx, "city", []string{"temperature"}, 1)
	if _, err := s.ExtractPending(ctx, "city", 0); err != nil {
		t.Fatal(err)
	}
	base := s.Corpus.FindByTitle("Madison, Wisconsin").Text

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			hits, err := s.KeywordSearch(ctx, "Madison July temperature", 3)
			if err != nil {
				t.Error(err)
				return
			}
			if len(hits) == 0 || hits[0].Title != "Madison, Wisconsin" {
				t.Errorf("hits = %+v", hits)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < 5; i++ {
		s.CommitSnapshot(map[string]string{"Madison, Wisconsin": fmt.Sprintf("%s Revision %d.", base, i)})
		if changed, err := s.RefreshChanged("city"); err != nil || len(changed) != 1 {
			t.Fatalf("refresh %d: changed %v, err %v", i, changed, err)
		}
	}
}

// TestRefreshChangedRefusesGivenIndex: a System given its keyword index
// (a shard's partition) refuses RefreshChanged before it touches the
// corpus, the rows or the index, rather than rebuilding the index over
// the whole corpus.
func TestRefreshChangedRefusesGivenIndex(t *testing.T) {
	base, _ := newSystem(t, 4, 0, 0)
	part := search.BuildPartitions(base.Corpus, 2, func(d *doc.Document) int { return int(d.ID) % 2 })[0]
	s, err := New(Config{Corpus: base.Corpus, Index: part})
	if err != nil {
		t.Fatal(err)
	}
	if s.Index != part {
		t.Fatal("New did not keep the given index")
	}
	madison := s.Corpus.FindByTitle("Madison, Wisconsin")
	before := madison.Text
	s.CommitSnapshot(map[string]string{"Madison, Wisconsin": before + " Snow fell."})
	if _, err := s.RefreshChanged("city"); !errors.Is(err, ErrGivenIndex) {
		t.Fatalf("RefreshChanged: got %v, want ErrGivenIndex", err)
	}
	if madison.Text != before {
		t.Fatal("a refused RefreshChanged rewrote the corpus")
	}
}
