package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/uql"
)

// corrected is the explanation of a fact corrected to value by a user of
// weight 0.5: the stored state over the extraction's own explanation.
func corrected(extraction, qualifier, value string) string {
	return correctedPrefix(qualifier) + value + " (conf 0.50)\n" + indented(extraction)
}

func correctedPrefix(qualifier string) string {
	return "- [feedback] stored temperature[" + qualifier + "]="
}

// indented shifts an explanation one level down the tree.
func indented(text string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(text, "\n"), "\n", "\n  ") + "\n"
}

// TestExplainBesideCorrectionsAndCheckpoint runs explain beside
// concurrent corrections and checkpoints. Every explanation is the
// extraction's or a correction over it; a View opened before the
// corrections still explains the extracted values, and one opened after
// explains the last correction of each fact.
func TestExplainBesideCorrectionsAndCheckpoint(t *testing.T) {
	ctx := context.Background()
	corpus, _ := synth.Generate(synth.Config{Seed: 11, Cities: 4, People: 2, Filler: 10, MentionsPerPerson: 2})
	s, _, err := OpenDir(t.TempDir(), Config{Corpus: corpus}, func(s *System) error {
		_, err := s.Generate(ctx, `EXTRACT temperature FROM docs USING city KIND city INTO temps;
			STORE temps INTO TABLE extracted;`, uql.Options{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entities, quals := temperatureFacts(t, s)
	if len(entities) < 2 || len(quals[entities[1]]) < 2 {
		t.Fatalf("need two entities with two temperature rows each, have %v", quals)
	}
	keys := []factKey{
		{entities[0], quals[entities[0]][0]}, {entities[0], quals[entities[0]][1]},
		{entities[1], quals[entities[1]][0]}, {entities[1], quals[entities[1]][1]},
	}
	extracted := map[factKey]string{}
	for _, k := range keys {
		text, err := s.ExplainFact(ctx, k.entity, "temperature", k.qualifier)
		if err != nil {
			t.Fatal(err)
		}
		extracted[k] = text
	}
	pinned, err := s.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	const rounds = 30
	value := func(w, i int) string { return fmt.Sprintf("%d.5", 100*w+i) }
	var correctors, readers sync.WaitGroup
	stop := make(chan struct{})
	for w, k := range keys {
		correctors.Add(1)
		go func() {
			defer correctors.Done()
			for i := 0; i < rounds; i++ {
				if err := s.CorrectValue(ctx, "fixer", k.entity, "temperature", k.qualifier, value(w, i)); err != nil {
					t.Errorf("correct %v: %v", k, err)
					return
				}
			}
		}()
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)]
			text, err := s.ExplainFact(ctx, k.entity, "temperature", k.qualifier)
			if err != nil {
				t.Errorf("explain %v: %v", k, err)
				return
			}
			if text != extracted[k] && !(strings.HasPrefix(text, correctedPrefix(k.qualifier)) && strings.HasSuffix(text, " (conf 0.50)\n"+indented(extracted[k]))) {
				t.Errorf("explain %v beside corrections:\n%s", k, text)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	correctors.Wait()
	close(stop)
	readers.Wait()

	for w, k := range keys {
		got, err := pinned.ExplainFact(k.entity, "temperature", k.qualifier)
		if err != nil || got != extracted[k] {
			t.Fatalf("View opened before the corrections explains %v as:\n%s(err %v)\nwant:\n%s", k, got, err, extracted[k])
		}
		want := corrected(extracted[k], k.qualifier, value(w, rounds-1))
		if got, err := s.ExplainFact(ctx, k.entity, "temperature", k.qualifier); err != nil || got != want {
			t.Fatalf("explain %v after the corrections:\n%s(err %v)\nwant:\n%s", k, got, err, want)
		}
	}
}

// BenchmarkExplainFact prices one explain of the first, middle and last
// city's September temperature over the daemon program's dataspace, at
// 400 and 4,000 cities.
func BenchmarkExplainFact(b *testing.B) {
	for _, cities := range []int{400, 4000} {
		corpus, _ := synth.Generate(synth.Config{Seed: 7, Cities: cities, People: 20, Filler: 50, MentionsPerPerson: 2})
		s, err := New(Config{Corpus: corpus})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Generate(context.Background(), `EXTRACT temperature, population, founded FROM docs USING city KIND city INTO cityfacts;
			STORE cityfacts INTO TABLE extracted;`, uql.Options{}); err != nil {
			b.Fatal(err)
		}
		var titles []string
		for _, d := range corpus.Docs() {
			if d.Meta["kind"] == "city" {
				titles = append(titles, d.Title)
			}
		}
		for _, pos := range []struct {
			name string
			i    int
		}{{"first", 0}, {"middle", len(titles) / 2}, {"last", len(titles) - 1}} {
			b.Run(fmt.Sprintf("cities=%d/%s", cities, pos.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.ExplainFact(context.Background(), titles[pos.i], "temperature", "September"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		s.Close()
	}
}
