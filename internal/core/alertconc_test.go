package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/alert"
)

// The alert center is the delivery edge of the correction pipeline:
// every successful CorrectValue evaluates the corrected row against the
// standing queries. Under concurrent corrections the contract is
// exactly-once per correction identity — no lost notification, and no
// duplicate when an identical correction re-evaluates.

func TestAlertExactlyOnceUnderConcurrentCorrections(t *testing.T) {
	s := newCloseTestSystem(t)
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Subscribe(alert.Subscription{
		User: "watcher", Attribute: "temperature", Op: alert.OpGT, Threshold: -1000,
	}); err != nil {
		t.Fatal(err)
	}

	// Collect distinct correction identities from the extracted structure.
	rs, err := s.SQL(ctx, "SELECT entity, qualifier FROM extracted WHERE attribute = 'temperature'")
	if err != nil {
		t.Fatal(err)
	}
	type ident struct{ entity, qualifier string }
	var idents []ident
	for _, r := range rs.Rows {
		idents = append(idents, ident{r[0].S, r[1].S})
		if len(idents) == 12 {
			break
		}
	}
	if len(idents) < 4 {
		t.Fatalf("not enough extracted temperature rows to race: %d", len(idents))
	}

	correct := func(wg *sync.WaitGroup, errs chan<- error) {
		for i := range idents {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				val := fmt.Sprintf("%d", 2000+i)
				if err := s.CorrectValue(ctx, "fixer", idents[i].entity,
					"temperature", idents[i].qualifier, val); err != nil {
					errs <- fmt.Errorf("correct %v: %w", idents[i], err)
				}
			}(i)
		}
	}

	// Round 1: all corrections race. Every one must succeed (each locks
	// only its own row) and fire exactly one alert.
	var wg sync.WaitGroup
	errs := make(chan error, len(idents))
	correct(&wg, errs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hist := s.Alerts.History()
	if len(hist) != len(idents) {
		t.Fatalf("round 1: %d notifications for %d corrections", len(hist), len(idents))
	}
	seen := map[string]bool{}
	for _, n := range hist {
		key := n.Row.Entity + "|" + n.Row.Qualifier + "|" + n.Row.Value
		if seen[key] {
			t.Errorf("duplicate notification for %s", key)
		}
		seen[key] = true
	}
	for i, id := range idents {
		key := fmt.Sprintf("%s|%s|%d", id.entity, id.qualifier, 2000+i)
		if !seen[key] {
			t.Errorf("lost notification for correction %s", key)
		}
	}

	// Round 2: identical corrections race again. The values are unchanged,
	// so duplicate suppression must keep the ledger exactly as it was.
	errs2 := make(chan error, len(idents))
	correct(&wg, errs2)
	wg.Wait()
	close(errs2)
	for err := range errs2 {
		t.Error(err)
	}
	if again := s.Alerts.History(); len(again) != len(hist) {
		t.Fatalf("re-correcting to the same values grew the ledger: %d -> %d",
			len(hist), len(again))
	}
}
