package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/doc"
	"repro/internal/rdbms"
	"repro/internal/uql"
)

// Parallel bulk ingest: the paper's generation pipeline at corpus scale.
// Extraction fans out over the MapReduce cluster — one map task per
// document, shuffled by entity so each reduce partition holds
// entity-contiguous runs — and the extracted rows then load through the
// engine's COPY-style batch path: one logged batch record per chunk
// instead of per-row WAL records, deferred sorted index builds on a fresh
// table, and a closing checkpoint fence. Only the write differs: the rows
// stored take every ingest's side effects (ingested, in ingest.go).
//
// The run splits into ExtractAll (cluster extraction producing the global
// row stream) and BulkLoadRows (load one row slice into THIS system), so a
// sharded deployment can extract once and route slices of the same stream
// to the shards that own them.

// BulkIngestReport summarizes one bulk ingest run.
type BulkIngestReport struct {
	Docs       int           // documents mapped
	Rows       int           // extracted rows loaded
	Batches    int           // logged batch records (chunk commits)
	Partitions int           // reduce partitions (entity shards)
	Workers    int           // cluster workers that ran the extraction
	Deferred   bool          // indexes were built from sorted runs at the fence
	Elapsed    time.Duration // wall clock, extraction through fence
}

// RowsPerSec is the headline ingest metric.
func (r *BulkIngestReport) RowsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Rows) / r.Elapsed.Seconds()
}

// ExtractStats describes the cluster run behind one ExtractAll call.
type ExtractStats struct {
	Docs       int // documents mapped
	Partitions int // reduce partitions (entity shards)
	Workers    int // cluster workers that ran the extraction
}

// ExtractAll runs the named extractor's full pipeline over every corpus
// document on the cluster and returns the extracted rows sorted by
// (entity, attribute, qualifier, value, conf). The cluster only orders
// its output by key — same-key value order depends on which worker
// mapped which document — so the total sort here is what makes the
// stream deterministic for a given corpus and extractor, independent of
// scheduling and partition count. Entity-contiguous runs are preserved
// for the loader, and the sharded equivalence oracle leans on the
// cross-run determinism. partitions <= 0 shards by worker count.
func (s *System) ExtractAll(ctx context.Context, extractor string, partitions int) ([]uql.Row, ExtractStats, error) {
	var es ExtractStats
	if err := s.beginOp(); err != nil {
		return nil, es, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return nil, es, err
	}
	reg, ok := s.Env.Extractors[extractor]
	if !ok {
		return nil, es, fmt.Errorf("core: unknown extractor %q", extractor)
	}
	cl := s.Env.Cluster
	if cl == nil {
		cl = cluster.New(cluster.Config{Workers: 1})
	}
	if partitions <= 0 {
		partitions = cl.Workers()
	}

	// Map: extract one document, keyed by entity. Reduce: identity — the
	// shuffle has already grouped and sorted by entity, which is what
	// gives the loader entity-contiguous runs.
	docs := s.Corpus.Docs()
	inputs := make([]any, len(docs))
	for i, d := range docs {
		inputs[i] = d
	}
	pipeline := reg.Pipeline
	pairs, err := cl.Run(inputs,
		func(item any, emit func(key string, value any)) error {
			d := item.(*doc.Document)
			for _, f := range pipeline.ExtractDoc(d) {
				emit(f.Entity, fieldRow(f))
			}
			return nil
		},
		func(key string, values []any, emit func(value any)) error {
			for _, v := range values {
				emit(v)
			}
			return nil
		},
		partitions)
	if err != nil {
		return nil, es, err
	}
	rows := make([]uql.Row, 0, len(pairs))
	for _, p := range pairs {
		rows = append(rows, p.Value.(uql.Row))
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		if a.Attribute != b.Attribute {
			return a.Attribute < b.Attribute
		}
		if a.Qualifier != b.Qualifier {
			return a.Qualifier < b.Qualifier
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Conf < b.Conf
	})
	es = ExtractStats{Docs: len(docs), Partitions: partitions, Workers: cl.Workers()}
	s.Stats.Inc("core.bulkingest.docs", int64(es.Docs))
	return rows, es, nil
}

// BulkLoadRows loads an already-extracted row slice into this system's
// extracted table through the COPY-style batch path and applies ingest's
// side effects to the rows it stored. The load is chunked into durable
// all-or-nothing batches, in order, and fenced with a checkpoint; on
// error, the chunks already durable stay (the report counts them) and
// their rows take the side effects like a complete load's.
func (s *System) BulkLoadRows(ctx context.Context, rows []uql.Row) (*BulkIngestReport, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	tups := make([]rdbms.Tuple, len(rows))
	for i, r := range rows {
		tups[i] = StoreRow(r)
	}

	report := &BulkIngestReport{}
	stats, err := s.DB.BulkLoad(ctx, TableName, tups)
	report.Rows = stats.Rows
	report.Batches = stats.Batches
	report.Deferred = stats.Deferred
	// Chunks commit in row order, so the stored rows are a prefix.
	s.ingested(rows[:stats.Rows], "core.bulkingest.rows")
	if err != nil {
		return report, err
	}
	report.Elapsed = time.Since(start)
	s.Stats.Inc("core.bulkingest.batches", int64(report.Batches))
	return report, nil
}

// BulkIngest extracts every corpus document with the named extractor's
// full pipeline on the cluster and bulk-loads the results into the
// extracted table. partitions <= 0 shards by the worker count. It is
// ExtractAll composed with BulkLoadRows; see both for the contract.
func (s *System) BulkIngest(ctx context.Context, extractor string, partitions int) (*BulkIngestReport, error) {
	start := time.Now()
	rows, es, err := s.ExtractAll(ctx, extractor, partitions)
	if err != nil {
		return nil, err
	}
	report, err := s.BulkLoadRows(ctx, rows)
	if report != nil {
		report.Docs = es.Docs
		report.Partitions = es.Partitions
		report.Workers = es.Workers
		if err == nil {
			report.Elapsed = time.Since(start)
		}
	}
	return report, err
}
