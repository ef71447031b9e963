// Quickstart: the minimal end-to-end loop — generate a corpus, run a
// declarative extraction program over a crash-safe on-disk database,
// move from keyword search to a structured answer, then close and
// reopen the same directory to show the extracted structure surviving a
// real process-style restart.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/uql"
)

func main() {
	// 1. A Wikipedia-like corpus (the system's unstructured input).
	corpus, _ := synth.Generate(synth.DefaultConfig(1))
	fmt.Printf("corpus: %d documents, %d KiB\n", corpus.Len(), corpus.Bytes()/1024)

	// 2. A durable root: dir/db holds the checksummed page file and WAL.
	// Everything below survives in this directory across Close → OpenDir.
	dir, err := os.MkdirTemp("", "quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 3. First life: stand up the system; the setup runs only because the
	// directory is fresh, and materializes structure via a declarative IE
	// program.
	sys, rep, err := core.OpenDir(dir, core.Config{Corpus: corpus, Workers: 4}, func(s *core.System) error {
		plan, err := s.Generate(context.Background(), `
			EXTRACT temperature, population FROM docs USING city KIND city INTO facts;
			STORE facts INTO TABLE extracted;
		`, uql.Options{})
		if err != nil {
			return err
		}
		fmt.Println("\nexecution plan:")
		fmt.Println(plan.Explain)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first open: reopened=%v, rows materialized: %d\n",
		rep.Reopened, sys.Stats.Counter("uql.store.rows"))

	// 4. Exploitation, mode 1: plain keyword search (the IR baseline).
	fmt.Println("\nkeyword search: 'average temperature Madison Wisconsin'")
	hits, err := sys.KeywordSearch(context.Background(), "average temperature Madison Wisconsin", 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, h := range hits {
		fmt.Printf("  %d. %s (%.2f)\n", i+1, h.Title, h.Score)
	}

	// 5. Exploitation, mode 2: the same keywords guided into a structured
	// query — the transition keyword search cannot make.
	ans, err := sys.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nguided reformulation candidates:")
	for i, c := range ans.Candidates {
		fmt.Printf("  %d. %s\n", i+1, c.Form())
	}
	if avg, ok := core.AverageFromRows(ans.Answer); ok {
		fmt.Printf("\nanswer: the average temperature in Madison is %.1f degrees F\n", avg)
	}

	// 6. Close: checkpoint the database (all pages durable, WAL
	// truncated). This is the full shutdown a real deployment would run.
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nclosed: database checkpointed to disk")

	// 7. Second life: reopen the same directory. The extracted table
	// recovers from the data file — no re-extraction — and the first
	// catalog read rebuilds the catalog with one scan of it.
	sys2, rep2, err := core.OpenDir(dir, core.Config{Corpus: corpus, Workers: 4}, func(s *core.System) error {
		log.Fatal("setup ran on reopen — the database was not recovered")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened: reopened=%v (extraction skipped, structure recovered from %s)\n",
		rep2.Reopened, dir)

	// 8. Exploitation, mode 3: direct SQL for sophisticated users — served
	// from the recovered on-disk structure.
	rs, err := sys2.SQL(context.Background(), `SELECT entity, num FROM extracted
		WHERE attribute = 'population' AND num > 1000000 ORDER BY num DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncities over one million (via SQL, after reopen):")
	fmt.Print(rs.String())

	if err := sys2.Close(); err != nil {
		log.Fatal(err)
	}
}
