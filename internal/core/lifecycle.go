package core

import (
	"fmt"
	"path/filepath"
)

// OpenReport describes what OpenDir found on disk.
type OpenReport struct {
	// Reopened is true when the on-disk database already held extracted
	// rows or a planned task: the database recovered from its files and
	// setup was skipped.
	Reopened bool
}

// OpenDir is the single-root disk lifecycle: the crash-safe database
// lives in dir/db, and it is the only state that persists — the extracted
// table, the task queue and its progress (tasksTable). On a fresh
// directory OpenDir runs setup to generate the structure; on an existing
// one the database recovers from disk, setup is skipped, and New has
// rebuilt the queue from the tasks table. The catalog cache is rebuilt by
// one record scan at its first read. Close the returned System to
// checkpoint the database.
func OpenDir(dir string, cfg Config, setup func(*System) error) (*System, OpenReport, error) {
	cfg.Dir = filepath.Join(dir, "db")
	s, err := New(cfg)
	if err != nil {
		return nil, OpenReport{}, err
	}
	// On any later failure, release the database files (and the directory
	// lock they hold) before reporting the error; best effort, since the
	// failure may have left active state Close cannot checkpoint.
	fail := func(rep OpenReport, err error) (*System, OpenReport, error) {
		s.DB.Close()
		return nil, rep, err
	}
	rows, err := s.extractedRowCount()
	if err != nil {
		return fail(OpenReport{}, err)
	}
	s.mu.Lock()
	planned := len(s.total) > 0
	s.mu.Unlock()
	rep := OpenReport{Reopened: rows > 0 || planned}
	if !rep.Reopened && setup != nil {
		if err := setup(s); err != nil {
			return fail(rep, err)
		}
	}
	return s, rep, nil
}

// Close persists what the next life needs and releases the storage: a
// disk-backed database gets the pending tasks' changed priorities written
// back, then is checkpointed and closed, after which OpenDir on the same
// root reopens it. In-memory systems close to a no-op.
//
// Close is idempotent and safe under concurrent callers: the first caller
// flips the system into closing (new operations get ErrClosed), drains
// in-flight operations, then tears down; every other caller — concurrent
// or later — waits for that teardown and returns its result. This is the
// drain primitive the network server's graceful shutdown stands on.
func (s *System) Close() error {
	s.lifeMu.Lock()
	if s.closing {
		// Another Close won; wait for it and share its verdict.
		done := s.closeDone
		s.lifeMu.Unlock()
		<-done
		return s.closeErr
	}
	s.closing = true
	s.closeDone = make(chan struct{})
	for s.inflight > 0 {
		s.lifeCond.Wait()
	}
	done := s.closeDone
	s.lifeMu.Unlock()

	var err error
	if s.diskBacked {
		err = s.persistBoosts()
		if cerr := s.DB.Close(); err == nil {
			err = cerr
		}
	}
	s.lifeMu.Lock()
	s.closeErr = err
	s.lifeMu.Unlock()
	close(done)
	return err
}

// Checkpoint forces everything committed so far into the data pages and
// truncates the WAL — without stalling concurrent work. The engine's
// checkpoints are fuzzy: they run while guided-query writers,
// CorrectValue, and extraction transactions keep committing, so a
// long-running System can bound its log growth and tighten its
// crash-recovery window on a timer or after large ingests, with no
// quiesce coordination. (Close still checkpoints; this makes the same
// durability available mid-flight.)
func (s *System) Checkpoint() error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.DB.Checkpoint()
}

// ExtractedRows returns the number of rows in the extracted table, read
// O(1) from the entity index (diagnostics, CLI, and reopen detection).
func (s *System) ExtractedRows() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	defer s.endOp()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extractedRowCount()
}

// extractedRowCount reads the extracted table's row count from the entity
// index in O(1) — every row carries an entity, so index entries == rows.
func (s *System) extractedRowCount() (int, error) {
	t := s.DB.Table(TableName)
	if t == nil {
		return 0, fmt.Errorf("core: table %s does not exist", TableName)
	}
	idx := t.Indexes["entity"]
	if idx == nil {
		return 0, fmt.Errorf("core: no entity index on %s", TableName)
	}
	return idx.Len(), nil
}

// EngineStats bundles the storage-engine health counters the serving
// layer reports: the server reads these through its Backend interface
// instead of reaching into System.DB, so a sharded backend can aggregate
// them across engines.
type EngineStats struct {
	Checkpoints    int64
	WALSyncs       int64
	IndexesLoaded  int
	IndexesRebuilt int

	// Buffer-pool vitals: raw counters so a sharded backend can sum them;
	// hit rate is derived at the reporting edge.
	BufferHits       int64
	BufferMisses     int64
	BufferEvictions  int64
	BufferScanBypass int64
	BufferCapacity   int // frames (summed across shards when aggregated)
	BufferResident   int
}

// EngineStats returns the engine's current health counters.
func (s *System) EngineStats() EngineStats {
	os := s.DB.LastOpenStats()
	bs := s.DB.BufferStats()
	return EngineStats{
		Checkpoints:      s.DB.Checkpoints(),
		WALSyncs:         s.DB.WALSyncs(),
		IndexesLoaded:    os.IndexesLoaded,
		IndexesRebuilt:   os.IndexesRebuilt,
		BufferHits:       bs.Hits,
		BufferMisses:     bs.Misses,
		BufferEvictions:  bs.Evictions,
		BufferScanBypass: bs.ScanBypass,
		BufferCapacity:   bs.Capacity,
		BufferResident:   bs.Resident,
	}
}

// PendingByAttribute returns the number of pending tasks per attribute
// (diagnostics and restart tests).
func (s *System) PendingByAttribute() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, tk := range s.queue.snapshot() {
		out[tk.attribute]++
	}
	return out
}
