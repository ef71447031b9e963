package rdbms

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Larger-than-RAM serving oracles: a heap an order of magnitude bigger
// than the buffer pool must serve point reads, full scans, and ORDER BY
// byte-identically to an uncapped pool, inside the frame cap, with the
// scan-resistant (segmented-LRU) replacement keeping a hot working set
// cached through scan interference — which a flat LRU demonstrably does
// not.

// buildLTRRows makes n distinct ~200-byte rows so the heap spans many
// pages (roughly 17 rows per 4 KiB page).
func buildLTRRows(n int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{NewInt(int64(i)), NewString(fmt.Sprintf("v%06d-%s", i, pad(180)))}
	}
	return rows
}

// openLTRDB builds a DB over in-memory devices with the given frame cap
// and replacement policy and bulk-loads rows into table kv.
func openLTRDB(t testing.TB, pages int, flat bool, rows []Tuple) *DB {
	t.Helper()
	pager, err := NewDevicePager(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(NewMemWALStore())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(pager, wal, Options{BufferPages: pages})
	if err != nil {
		t.Fatal(err)
	}
	if flat {
		// Swap in the flat-LRU reference policy before any table exists;
		// flushing first hands the fresh catalog page to the pager.
		if err := db.bp.Flush(); err != nil {
			t.Fatal(err)
		}
		db.bp = newBufferPool(pager, wal, pages, true)
	}
	if err := db.CreateTable(TableSchema{Name: "kv", Columns: []ColumnDef{
		{Name: "k", Type: TInt}, {Name: "v", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BulkLoad(context.Background(), "kv", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLargerThanRAMServing: the memory-bounded oracle. A 16-frame pool
// serves a heap >= 10x its capacity; every query answer is byte-identical
// to an effectively-uncapped pool over the same data; the pool never
// holds more frames than its cap; and repeated full scans do not grow the
// process heap (the working set is the pool, not the table).
func TestLargerThanRAMServing(t *testing.T) {
	const frames = 16
	rows := buildLTRRows(4000)
	capped := openLTRDB(t, frames, false, rows)
	defer capped.Close()
	uncapped := openLTRDB(t, 4096, false, rows)
	defer uncapped.Close()

	if np := capped.bp.NumPages(); int(np) < 10*frames {
		t.Fatalf("heap spans %d pages, want >= %d (10x the %d-frame pool)", np, 10*frames, frames)
	}

	queries := []string{
		"SELECT k, v FROM kv WHERE k = 0",
		"SELECT k, v FROM kv WHERE k = 137",
		"SELECT k, v FROM kv WHERE k = 3891",
		"SELECT k FROM kv ORDER BY k LIMIT 25",
		"SELECT k, v FROM kv ORDER BY k DESC LIMIT 7",
		"SELECT k FROM kv WHERE k = 2048",
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, err := uncapped.Exec(q)
			if err != nil {
				t.Fatalf("uncapped %q: %v", q, err)
			}
			got, err := capped.Exec(q)
			if err != nil {
				t.Fatalf("capped %q: %v", q, err)
			}
			if got.String() != want.String() {
				t.Fatalf("round %d query %q diverged under the frame cap:\ncapped:\n%s\nuncapped:\n%s",
					round, q, got.String(), want.String())
			}
			if st := capped.BufferStats(); st.Resident > st.Capacity || st.Capacity != frames {
				t.Fatalf("pool overran its cap: %d resident of %d", st.Resident, st.Capacity)
			}
		}
		// A full scan between rounds: the next round's answers must not
		// change, and the cap must hold through it.
		n := 0
		if err := capped.Table("kv").Heap.Scan(func(RID, Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("full scan saw %d rows, want %d", n, len(rows))
		}
	}
	st := capped.BufferStats()
	if st.ScanBypass == 0 {
		t.Fatal("sequential scans never took the scan-hinted admission path")
	}
	if st.Evictions == 0 {
		t.Fatal("a 10x-pool workload evicted nothing; cap not enforced?")
	}

	// Bounded memory: repeated full scans over the 10x heap must not
	// accumulate — post-GC heap growth stays far below the table size.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		if err := capped.Table("kv").Heap.Scan(func(RID, Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("5 full scans grew the post-GC heap by %d bytes; scans are accumulating state", grew)
	}
}

// warmHotSet picks n RIDs spread across the heap so they land on
// distinct pages, and reads each three times: the re-reference promotes
// them to protected under SLRU.
func warmHotSet(t testing.TB, h *HeapFile, n int) []RID {
	t.Helper()
	var all []RID
	if err := h.Scan(func(rid RID, _ Tuple) bool { all = append(all, rid); return true }); err != nil {
		t.Fatal(err)
	}
	hot := make([]RID, n)
	seen := map[PageID]bool{}
	for i := range hot {
		rid := all[i*len(all)/n]
		if seen[rid.Page] {
			t.Fatalf("hot set not page-distinct: page %d twice", rid.Page)
		}
		seen[rid.Page] = true
		hot[i] = rid
	}
	for pass := 0; pass < 3; pass++ {
		for _, rid := range hot {
			if _, ok, err := h.Get(rid); err != nil || !ok {
				t.Fatalf("warm get %v: ok=%v err=%v", rid, ok, err)
			}
		}
	}
	return hot
}

// TestLargerThanRAMScanResistance: the replacement-policy oracle. A hot
// set of 8 pages is point-read between full-table scans on a 16-frame
// pool. The segmented LRU holds the hot set in its protected queue
// through every scan (point-read hit rate near 1); the flat LRU is wiped
// by each scan (hit rate near 0). Run on both policies so the flat
// baseline demonstrably fails the same oracle.
func TestLargerThanRAMScanResistance(t *testing.T) {
	const (
		frames  = 16
		hotSize = 8
		rounds  = 10
	)
	rows := buildLTRRows(3000)
	rates := map[string]float64{}
	for _, mode := range []struct {
		name string
		flat bool
	}{{"slru", false}, {"flat", true}} {
		db := openLTRDB(t, frames, mode.flat, rows)
		h := db.Table("kv").Heap
		hot := warmHotSet(t, h, hotSize)

		var pointHits, pointTotal int64
		for r := 0; r < rounds; r++ {
			if err := h.Scan(func(RID, Tuple) bool { return true }); err != nil {
				t.Fatal(err)
			}
			before := db.BufferStats()
			for _, rid := range hot {
				if _, ok, err := h.Get(rid); err != nil || !ok {
					t.Fatalf("hot get %v: ok=%v err=%v", rid, ok, err)
				}
			}
			after := db.BufferStats()
			pointHits += after.Hits - before.Hits
			pointTotal += hotSize
		}
		rates[mode.name] = float64(pointHits) / float64(pointTotal)
		st := db.BufferStats()
		if mode.flat && st.Promotions != 0 {
			t.Fatalf("flat LRU recorded %d promotions", st.Promotions)
		}
		if !mode.flat && st.Promotions == 0 {
			t.Fatal("SLRU never promoted a re-referenced page")
		}
		db.Close()
	}
	t.Logf("hot point-read hit rate under scan interference: slru=%.2f flat=%.2f", rates["slru"], rates["flat"])
	if rates["slru"] < 0.75 {
		t.Fatalf("scan-resistant pool hot hit rate %.2f, want >= 0.75", rates["slru"])
	}
	if rates["flat"] > 0.25 {
		t.Fatalf("flat LRU hot hit rate %.2f under scans; expected it to thrash (<= 0.25) — oracle can't discriminate", rates["flat"])
	}
	if rates["slru"] <= rates["flat"] {
		t.Fatalf("SLRU (%.2f) not better than flat LRU (%.2f)", rates["slru"], rates["flat"])
	}
}

// BenchmarkHotPointReadUnderScan prices a hot point read while full-heap
// sweeps keep evicting (one sweep per 256 reads, outside the timer) on a
// pool ~10x smaller than the heap. The scan-resistant pool keeps the hot
// pages resident, so ns/op is a cached read and the reported hit-rate,
// counting the hot reads only, stays near 1.
func BenchmarkHotPointReadUnderScan(b *testing.B) {
	db := openLTRDB(b, 24, false, buildLTRRows(4000))
	defer db.Close()
	h := db.Table("kv").Heap
	hot := warmHotSet(b, h, 8)
	start := db.BufferStats()
	var scanHits, scanMisses int64 // pool traffic of the sweeps, not the hot reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			s0 := db.BufferStats()
			if err := h.Scan(func(RID, Tuple) bool { return true }); err != nil {
				b.Fatal(err)
			}
			s1 := db.BufferStats()
			scanHits += s1.Hits - s0.Hits
			scanMisses += s1.Misses - s0.Misses
			b.StartTimer()
		}
		if _, ok, err := h.Get(hot[i%len(hot)]); err != nil || !ok {
			b.Fatalf("hot get: ok=%v err=%v", ok, err)
		}
	}
	b.StopTimer()
	end := db.BufferStats()
	hits := end.Hits - start.Hits - scanHits
	misses := end.Misses - start.Misses - scanMisses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
}

// TestPoolExhaustedSentinelOnEviction: when every frame is pinned, Pin
// fails with an error that wraps ErrPoolExhausted — callers (and the
// server's error mapper) classify it with errors.Is, not string
// matching.
func TestPoolExhaustedSentinelOnEviction(t *testing.T) {
	pager, err := NewDevicePager(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(pager, nil, 2)
	var held []PageGuard
	for i := 0; i < 3; i++ {
		g, err := bp.NewPage()
		if i < 2 {
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, g)
			continue
		}
		// Third page with both frames pinned: must refuse, typed.
		if err == nil {
			t.Fatal("NewPage succeeded with every frame pinned")
		}
		if !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("error %v does not wrap ErrPoolExhausted", err)
		}
	}
	// Releasing one pin clears the condition.
	held[0].Release(false)
	g, err := bp.NewPage()
	if err != nil {
		t.Fatalf("NewPage after Release: %v", err)
	}
	g.Release(false)
	held[1].Release(false)
	g, err = bp.Pin(held[0].ID(), LatchShared)
	if err != nil {
		t.Fatalf("Pin after pressure released: %v", err)
	}
	g.Release(false)
}

// flakyWriteDevice injects a deterministic write failure every Nth write
// while enabled — eviction write-backs fail sporadically mid-storm.
type flakyWriteDevice struct {
	Device
	enabled atomic.Bool
	writes  atomic.Int64
}

var errFlakyWrite = errors.New("injected write failure")

func (d *flakyWriteDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.enabled.Load() && d.writes.Add(1)%13 == 0 {
		return 0, errFlakyWrite
	}
	return d.Device.WriteAt(p, off)
}

// TestConcurrentPinEvictRaceSuite: 8 goroutines hammer a capacity-2 pool
// (run under -race by the CI crash job) with shared read pins, scan
// pins, and private dirty pages, while eviction write-backs sporadically
// fail. Invariants: a pinned frame is never evicted out from under its
// holder (the buffer keeps serving that page's bytes), pin failures are
// only the typed exhaustion/injected errors, and after the storm every
// page's last stamped LSN and payload survive a full flush — the recLSN
// bookkeeping lost nothing.
func TestConcurrentPinEvictRaceSuite(t *testing.T) {
	const (
		workers     = 8
		sharedPages = 6
		iters       = 1500
		markerOff   = 64
	)
	flaky := &flakyWriteDevice{Device: NewMemDevice()}
	pager, err := NewDevicePager(flaky)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := NewWALOn(NewMemWALStore())
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(pager, wal, 2)

	// Seed shared pages 0..5 (read-only in the storm) and one private
	// page per worker, each stamped with its id at markerOff.
	total := sharedPages + workers
	pageIDs := make([]PageID, total)
	for i := 0; i < total; i++ {
		g, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(g.Data()[markerOff:], uint64(g.ID()))
		g.Release(true)
		pageIDs[i] = g.ID()
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}

	flaky.enabled.Store(true)
	lastLSN := make([]LSN, workers) // final stamped LSN of each private page
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			private := pageIDs[sharedPages+g]
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1: // shared read, point-read path
					pid := pageIDs[(g+i)%sharedPages]
					pg, err := bp.Pin(pid, LatchShared)
					if err != nil {
						if !errors.Is(err, ErrPoolExhausted) && !errors.Is(err, errFlakyWrite) {
							errCh <- fmt.Errorf("worker %d: pin %d: unexpected error %w", g, pid, err)
							return
						}
						continue
					}
					if got := PageID(binary.LittleEndian.Uint64(pg.Data()[markerOff:])); got != pid {
						errCh <- fmt.Errorf("worker %d: pinned page %d but frame holds page %d's bytes", g, pid, got)
						pg.Release(false)
						return
					}
					runtime.Gosched() // widen the window for a racing eviction
					if got := PageID(binary.LittleEndian.Uint64(pg.Data()[markerOff:])); got != pid {
						errCh <- fmt.Errorf("worker %d: page %d's frame was stolen while pinned", g, pid)
						pg.Release(false)
						return
					}
					pg.Release(false)
				case 2: // shared read, scan-hinted path
					pid := pageIDs[(g*3+i)%sharedPages]
					pg, err := bp.PinScan(pid)
					if err != nil {
						if !errors.Is(err, ErrPoolExhausted) && !errors.Is(err, errFlakyWrite) {
							errCh <- fmt.Errorf("worker %d: pinscan %d: unexpected error %w", g, pid, err)
							return
						}
						continue
					}
					if got := PageID(binary.LittleEndian.Uint64(pg.Data()[markerOff:])); got != pid {
						errCh <- fmt.Errorf("worker %d: scan-pinned page %d but frame holds page %d's bytes", g, pid, got)
						pg.Release(false)
						return
					}
					pg.Release(false)
				case 3: // private logged mutation: append, stamp, dirty
					pg, err := bp.Pin(private, LatchExclusive)
					if err != nil {
						if !errors.Is(err, ErrPoolExhausted) && !errors.Is(err, errFlakyWrite) {
							errCh <- fmt.Errorf("worker %d: pin private %d: unexpected error %w", g, private, err)
							return
						}
						continue
					}
					lsn := wal.Append(&LogRecord{Kind: LogUpdate, Txn: TxnID(g + 1),
						Row: RID{Page: private, Slot: uint16(i)}})
					data := pg.Data()
					binary.LittleEndian.PutUint64(data[8:16], uint64(lsn))
					binary.LittleEndian.PutUint64(data[markerOff:], uint64(private))
					binary.LittleEndian.PutUint64(data[markerOff+8:], uint64(i))
					lastLSN[g] = lsn
					pg.Release(true)
				}
				if i%97 == 0 {
					// Exercise the recLSN surfaces under contention.
					bp.MinRecLSN()
					bp.DirtyPageTable()
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Storm over: with faults off, everything must flush, and each
	// private page's durable image must carry its LAST stamped LSN and
	// marker — eviction failures along the way lost no dirty state and
	// never dropped a recLSN early.
	flaky.enabled.Store(false)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := bp.MinRecLSN(); ok {
		t.Fatalf("dirty recLSN %d survives a successful full flush", got)
	}
	buf := make([]byte, PageSize)
	for g := 0; g < workers; g++ {
		pid := pageIDs[sharedPages+g]
		if err := pager.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if got := pageLSNOf(buf); got != lastLSN[g] {
			t.Fatalf("private page %d durable at LSN %d, want last stamped %d", pid, got, lastLSN[g])
		}
		if got := PageID(binary.LittleEndian.Uint64(buf[markerOff:])); got != pid {
			t.Fatalf("private page %d holds page %d's bytes on disk", pid, got)
		}
	}
	for i := 0; i < sharedPages; i++ {
		if err := pager.ReadPage(pageIDs[i], buf); err != nil {
			t.Fatal(err)
		}
		if got := PageID(binary.LittleEndian.Uint64(buf[markerOff:])); got != pageIDs[i] {
			t.Fatalf("shared page %d corrupted: marker %d", pageIDs[i], got)
		}
	}
}
