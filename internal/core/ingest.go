package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alert"
	"repro/internal/extract"
	"repro/internal/rdbms"
	"repro/internal/schema"
	"repro/internal/uql"
)

// Every extracted row enters the extracted table through ingest's one
// transaction (UQL STORE via the Env.Store sink, ExtractPending,
// RefreshChanged) or BulkLoadRows' batches, and then takes the same side
// effects: ingested. No ingest invalidates the catalog cache.

// extractedSchema is the extracted table's format. The "num" column
// carries the numeric parse of "value" (NULL when the value is not
// numeric), so SQL aggregates like AVG(num) work directly over extracted
// attribute-value pairs.
var extractedSchema = rdbms.TableSchema{Name: TableName, Columns: []rdbms.ColumnDef{
	{Name: "entity", Type: rdbms.TString},
	{Name: "attribute", Type: rdbms.TString},
	{Name: "qualifier", Type: rdbms.TString},
	{Name: "value", Type: rdbms.TString},
	{Name: "num", Type: rdbms.TFloat},
	{Name: "conf", Type: rdbms.TFloat},
}}

// fieldRow is an extracted field as a row to ingest.
func fieldRow(f extract.Field) uql.Row {
	return uql.Row{Entity: f.Entity, Attribute: f.Attribute, Qualifier: f.Qualifier, Value: f.Value, Conf: f.Conf}
}

// StoreRow converts a row to its extracted-table tuple.
func StoreRow(r uql.Row) rdbms.Tuple {
	return rdbms.Tuple{
		rdbms.NewString(r.Entity),
		rdbms.NewString(r.Attribute),
		rdbms.NewString(r.Qualifier),
		rdbms.NewString(r.Value),
		numValue(r.Value),
		rdbms.NewFloat(r.Conf),
	}
}

// numValue parses a row value into the "num" column's SQL value.
func numValue(value string) rdbms.Value {
	cleaned := strings.ReplaceAll(value, ",", "")
	if f, err := strconv.ParseFloat(cleaned, 64); err == nil {
		return rdbms.NewFloat(f)
	}
	return rdbms.Null()
}

// ErrStoreTable is the STORE sink's refusal of any table but the
// extracted one, the only table whose format and bookkeeping core owns.
var ErrStoreTable = errors.New("core: UQL STORE writes only the " + TableName + " table")

// store is the uql.Env.Store sink.
func (s *System) store(table string, rows []uql.Row) error {
	if table != TableName {
		return fmt.Errorf("%w, not %q", ErrStoreTable, table)
	}
	return s.ingest(rows, "uql.store.rows", nil)
}

// ingest writes rows into the extracted table in one transaction. inTx,
// when set, runs in the same transaction after the inserts, so the
// transaction commits even when rows is empty (ExtractPending marks its
// task done there). After the commit, ingested applies the side effects.
func (s *System) ingest(rows []uql.Row, counter string, inTx func(*rdbms.Txn) error) error {
	if len(rows) > 0 || inTx != nil {
		tx := s.DB.Begin()
		for _, r := range rows {
			if _, err := tx.Insert(TableName, StoreRow(r)); err != nil {
				tx.Abort()
				return err
			}
		}
		if inTx != nil {
			if err := inTx(tx); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			// In doubt until aborted: the abort settles it, so the rows and
			// inTx's writes are durably absent.
			tx.Abort()
			return err
		}
		s.maybeCheckpoint()
	}
	s.ingested(rows, counter)
	return nil
}

// ingested applies the side effects every ingest shares to committed
// rows: they fold into the catalog cache under s.mu (after the commit, so
// the cache never sees rows an abort would retract, and no rdbms lock is
// held under s.mu), evolve the schema, meet the standing queries, and
// add to counter.
func (s *System) ingested(rows []uql.Row, counter string) {
	s.Stats.Inc(counter, int64(len(rows)))
	if len(rows) == 0 {
		return
	}
	s.mu.Lock()
	for _, r := range rows {
		s.cat.addRow(r.Entity, r.Attribute, r.Qualifier)
	}
	s.mu.Unlock()
	s.evolveSchema(rows)
	alertRows := make([]alert.Row, len(rows))
	for i, r := range rows {
		alertRows[i] = alert.Row{
			Entity: r.Entity, Attribute: r.Attribute,
			Qualifier: r.Qualifier, Value: r.Value, Conf: r.Conf,
		}
	}
	if fired := s.Alerts.Evaluate(alertRows); len(fired) > 0 {
		s.Stats.Inc("core.alerts.fired", int64(len(fired)))
	}
}

// evolveSchema registers newly seen attributes in the logical schema with
// a type inferred from their values (§3.2: the schema of incrementally
// generated structure evolves over time).
func (s *System) evolveSchema(rows []uql.Row) {
	samples := map[string][]string{}
	for _, r := range rows {
		if len(samples[r.Attribute]) < 30 {
			samples[r.Attribute] = append(samples[r.Attribute], r.Value)
		}
	}
	cur := s.Schema.Current()
	known := map[string]bool{}
	for _, a := range cur.Attributes {
		known[a.Name] = true
	}
	attrs := make([]string, 0, len(samples))
	for a := range samples {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		if known[a] {
			continue
		}
		// Errors (duplicate adds from a concurrent ingest) are harmless;
		// the attribute is already registered.
		if _, err := s.Schema.AddAttribute(a, schema.InferType(samples[a])); err == nil {
			s.Stats.Inc("core.schema.attributes", 1)
		}
	}
}
