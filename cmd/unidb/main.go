// Command unidb is the command-line interface of the user layer: it spins
// up the end-to-end system over a synthetic Wikipedia-like corpus and
// exposes the DGE model's modes as subcommands.
//
// Usage:
//
//	unidb [flags] <command> [args...]
//
// Commands:
//
//	generate <uql-program-file|->   run a UQL program (default demo program
//	                                when the argument is omitted)
//	search <keywords...>            keyword search (IR baseline)
//	ask <keywords...>               guided keyword -> structured answer
//	sql <statement>                 direct SQL over the extracted structure
//	browse [facet=value...]         faceted browsing summary
//	sweep                           run the semantic debugger
//	stats                           print system statistics
//	ingest [extractor]              bulk-ingest the whole corpus through the
//	                                cluster and the COPY-style batch loader
//	                                (default extractor: city)
//
// Flags:
//
//	-cities N -people N -filler N -seed N -workers N -corrupt F
//	-data DIR      persist the database under DIR: generate once, then
//	               search/ask/sql against the recovered structure in later
//	               invocations
//	-timeout D     per-command deadline (e.g. 5s); queries abort mid-scan
//	               when it expires
//	-remote ADDR   run the command against a unidbd server at ADDR instead
//	               of an in-process system
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/uql"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unidb:", err)
		os.Exit(1)
	}
}

const demoProgram = `
EXTRACT temperature, population, founded FROM docs USING city KIND city INTO cityfacts;
STORE cityfacts INTO TABLE extracted;
`

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("unidb", flag.ContinueOnError)
	cities := fs.Int("cities", 50, "synthetic city articles")
	people := fs.Int("people", 20, "synthetic people")
	filler := fs.Int("filler", 30, "synthetic filler articles")
	seed := fs.Int64("seed", 1, "corpus seed")
	workers := fs.Int("workers", 4, "cluster workers")
	corrupt := fs.Float64("corrupt", 0, "fraction of corrupted city articles")
	dataDir := fs.String("data", "", "persist the database under this directory: the extracted structure survives across invocations (crash-safe rdbms)")
	timeout := fs.Duration("timeout", 0, "per-command deadline (0 = none); expired deadlines abort queries mid-scan")
	remote := fs.String("remote", "", "address of a unidbd server to run the command against (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command (generate|search|ask|sql|browse|sweep|stats|ingest)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *remote != "" {
		return runRemote(ctx, *remote, rest[0], rest[1:], out)
	}

	corpus, _ := synth.Generate(synth.Config{
		Seed: *seed, Cities: *cities, People: *people, Filler: *filler,
		MentionsPerPerson: 2, CorruptFrac: *corrupt,
	})
	cfg := core.Config{Corpus: corpus, Workers: *workers}
	var sys *core.System
	if *dataDir != "" {
		s, rep, err := core.OpenDir(*dataDir, cfg, nil)
		if err != nil {
			return err
		}
		sys = s
		if rep.Reopened {
			fmt.Fprintf(out, "(reopened database under %s)\n", *dataDir)
		}
		defer func() {
			if err := sys.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	} else {
		s, err := core.New(cfg)
		if err != nil {
			return err
		}
		sys = s
	}

	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "generate":
		program := demoProgram
		if len(cmdArgs) > 0 && cmdArgs[0] != "-" {
			data, err := os.ReadFile(cmdArgs[0])
			if err != nil {
				return err
			}
			program = string(data)
		}
		plan, err := sys.Generate(context.Background(), program, uql.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "plan:")
		fmt.Fprintln(out, plan.Explain)
		fmt.Fprintf(out, "materialized rows: %d\n", sys.Stats.Counter("uql.store.rows"))
		return nil

	case "search":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		hits, err := sys.KeywordSearch(ctx, strings.Join(cmdArgs, " "), 10)
		if err != nil {
			return err
		}
		for i, h := range hits {
			fmt.Fprintf(out, "%2d. %-40s %.3f  %s\n", i+1, h.Title, h.Score, h.Snippet)
		}
		if len(hits) == 0 {
			fmt.Fprintln(out, "(no hits)")
		}
		return nil

	case "ask":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		ans, err := sys.AskGuided(ctx, strings.Join(cmdArgs, " "), 5)
		if err != nil {
			return err
		}
		if len(ans.Candidates) == 0 {
			fmt.Fprintln(out, "no structured interpretation found; try 'search'")
			return nil
		}
		fmt.Fprintln(out, "candidate structured queries:")
		for i, c := range ans.Candidates {
			fmt.Fprintf(out, "%2d. %-60s (score %.2f)\n", i+1, c.Form(), c.Score)
		}
		fmt.Fprintf(out, "\nexecuting top candidate:\n  %s\n\n", ans.Candidates[0].SQL)
		fmt.Fprint(out, ans.Answer.String())
		fmt.Fprintf(out, "(extraction coverage for %s: %.0f%%)\n",
			ans.Candidates[0].Attribute, ans.Coverage*100)
		return nil

	case "sql":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		rs, err := sys.SQL(ctx, strings.Join(cmdArgs, " "))
		if err != nil {
			return err
		}
		fmt.Fprint(out, rs.String())
		fmt.Fprintf(out, "(plan: %s)\n", rs.Plan)
		return nil

	case "browse":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		b, err := sys.Browse(ctx)
		if err != nil {
			return err
		}
		for _, refinement := range cmdArgs {
			parts := strings.SplitN(refinement, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("browse refinements look like facet=value, got %q", refinement)
			}
			if err := b.Refine(parts[0], parts[1]); err != nil {
				return err
			}
		}
		if p := b.Path(); p != "" {
			fmt.Fprintf(out, "path: %s\n", p)
		}
		fmt.Fprintf(out, "rows: %d\n", b.Count())
		for _, f := range b.Facets() {
			fmt.Fprintf(out, "facet %s:\n", f.Name)
			for i, v := range f.Values {
				if i >= 8 {
					fmt.Fprintf(out, "  ... %d more\n", len(f.Values)-8)
					break
				}
				fmt.Fprintf(out, "  %-40s %d\n", v.Value, v.Count)
			}
		}
		return nil

	case "sweep":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		violations, err := sys.SweepSuspicious(ctx)
		if err != nil {
			return err
		}
		if len(violations) == 0 {
			fmt.Fprintln(out, "no suspicious values")
			return nil
		}
		for _, v := range violations {
			fmt.Fprintln(out, v.String())
		}
		return nil

	case "stats":
		if err := ensureGenerated(sys); err != nil {
			return err
		}
		for _, line := range sys.Stats.Snapshot() {
			fmt.Fprintln(out, line)
		}
		return nil

	case "ingest":
		extractor := "city"
		if len(cmdArgs) > 0 {
			extractor = cmdArgs[0]
		}
		rep, err := sys.BulkIngest(ctx, extractor, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ingested %d rows from %d docs in %d batches (%d partitions, %d workers, deferred-index=%v)\n",
			rep.Rows, rep.Docs, rep.Batches, rep.Partitions, rep.Workers, rep.Deferred)
		fmt.Fprintf(out, "throughput: %.0f rows/sec\n", rep.RowsPerSec())
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// ensureGenerated lazily runs the demo extraction so exploitation commands
// work out of the box. A database reopened from -data already holds its
// structure and is left alone. Failures propagate: a command that cannot
// have data to run against must exit non-zero, not print over an empty
// table.
func ensureGenerated(sys *core.System) error {
	if sys.Stats.Counter("uql.store.rows") > 0 {
		return nil
	}
	if n, err := sys.ExtractedRows(); err == nil && n > 0 {
		return nil
	}
	if _, err := sys.Generate(context.Background(), demoProgram, uql.Options{}); err != nil {
		return fmt.Errorf("demo generation failed: %w", err)
	}
	return nil
}
