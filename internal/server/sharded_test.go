package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/synth"
)

// The sharded wire suite proves the serving contract is backend-agnostic:
// a ShardedSystem behind the same Server answers the same protocol with
// the same bytes as a single engine, and shard loss surfaces as the
// typed degraded marker instead of connection failure.

// newShardedBackend builds a ShardedSystem over the same corpus shape as
// newTestSystem, so wire-level answers are directly comparable.
func newShardedBackend(t testing.TB, cities, shards int) *shard.ShardedSystem {
	t.Helper()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: cities, People: 5, Filler: 10, MentionsPerPerson: 2,
	})
	ss, err := shard.Open(shard.Config{
		Shards: shards,
		System: core.Config{Corpus: corpus, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.BulkIngest(context.Background(), "city", 0); err != nil {
		ss.Close()
		t.Fatal(err)
	}
	return ss
}

// TestShardedServerEndToEnd serves a 3-shard system over a real socket
// and checks every operation answers — with SQL, ask, and browse results
// byte-identical to a single-engine server over the same corpus.
func TestShardedServerEndToEnd(t *testing.T) {
	const cities = 12
	ss := newShardedBackend(t, cities, 3)
	_, shardedAddr := startServer(t, ss, Options{})
	scli := dialTest(t, shardedAddr)

	// The single-engine reference ingests through the same bulk path, so
	// both servers hold the identical extracted table.
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: cities, People: 5, Filler: 10, MentionsPerPerson: 2,
	})
	single, err := core.New(core.Config{Corpus: corpus, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.BulkIngest(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	_, singleAddr := startServer(t, single, Options{})
	cli := dialTest(t, singleAddr)

	ctx := context.Background()

	h, err := scli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 3 || len(h.ShardsDown) != 0 {
		t.Fatalf("health topology: shards=%d down=%v", h.Shards, h.ShardsDown)
	}
	if h.ExtractedRows == 0 {
		t.Fatal("health: no extracted rows on sharded backend")
	}

	queries := []string{
		"SELECT entity, attribute, qualifier, value FROM extracted ORDER BY entity, attribute, qualifier, value LIMIT 40",
		"SELECT entity, value FROM extracted WHERE attribute = 'temperature' ORDER BY entity, qualifier LIMIT 15 OFFSET 5",
		"SELECT value FROM extracted WHERE attribute = 'population'",
		"SELECT DISTINCT attribute FROM extracted ORDER BY attribute",
		"SELECT COUNT(*) FROM extracted",
	}
	for _, q := range queries {
		want, err := cli.SQL(ctx, q)
		if err != nil {
			t.Fatalf("single %q: %v", q, err)
		}
		got, err := scli.SQL(ctx, q)
		if err != nil {
			t.Fatalf("sharded %q: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q diverged:\nsharded: %v\nsingle:  %v", q, got.Rows, want.Rows)
		}
	}

	const question = "average temperature Madison Wisconsin"
	wantAns, err := cli.Ask(ctx, question, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotAns, err := scli.Ask(ctx, question, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("guided answers diverged:\nsharded: %+v\nsingle:  %+v", gotAns, wantAns)
	}

	wantHits, err := cli.Search(ctx, question, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotHits, err := scli.Search(ctx, question, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Fatalf("search hits diverged:\nsharded: %+v\nsingle:  %+v", gotHits, wantHits)
	}

	wantBr, err := cli.Browse(ctx, "attribute=temperature")
	if err != nil {
		t.Fatal(err)
	}
	gotBr, err := scli.Browse(ctx, "attribute=temperature")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBr, wantBr) {
		t.Fatalf("browse diverged:\nsharded: %+v\nsingle:  %+v", gotBr, wantBr)
	}

	// Subscribe, correct an existing fact on its owning shard, explain it.
	if _, err := scli.Subscribe(ctx, "watcher", "", "temperature", ">", 500, 0); err != nil {
		t.Fatal(err)
	}
	fact, err := scli.SQL(ctx, "SELECT entity, qualifier FROM extracted WHERE attribute = 'temperature' ORDER BY entity, qualifier LIMIT 1")
	if err != nil || len(fact.Rows) == 0 {
		t.Fatalf("sample fact: %v %+v", err, fact)
	}
	entity, qualifier := fact.Rows[0][0], fact.Rows[0][1]
	if err := scli.Correct(ctx, "editor", entity, "temperature", qualifier, "999"); err != nil {
		t.Fatalf("correct %s/%s: %v", entity, qualifier, err)
	}
	// Lineage is re-derived from the owning shard's row and its document,
	// so a bulk-ingested fact explains, correction included.
	text, err := scli.Explain(ctx, entity, "temperature", qualifier)
	if err != nil {
		t.Fatalf("explain %s/%s: %v", entity, qualifier, err)
	}
	for _, want := range []string{"[document] " + entity, "[feedback] stored temperature[" + qualifier + "]=999 (conf "} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain %s/%s lacks %q:\n%s", entity, qualifier, want, text)
		}
	}
}

// TestShardedServerShardLoss kills one shard of four under a live server
// and checks the wire-level degradation contract: fan-out reads and
// keyword search return OK with the Degraded marker, entity-routed reads
// to the dead partition fail with the typed degraded error, and health
// reports the dead shard — all while concurrent healthy traffic keeps
// answering within its deadlines.
func TestShardedServerShardLoss(t *testing.T) {
	ss := newShardedBackend(t, 16, 4)
	_, addr := startServer(t, ss, Options{})
	cli := dialTest(t, addr)
	ctx := context.Background()
	// The search reference: one engine indexing the whole corpus.
	single, err := core.New(core.Config{Corpus: ss.Shard(0).Corpus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })

	// Pick probe entities on both sides of the failure before it happens.
	ents, err := cli.SQL(ctx, "SELECT DISTINCT entity FROM extracted ORDER BY entity")
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	deadEntity, liveEntity := "", ""
	for _, row := range ents.Rows {
		if ss.Owner(row[0]) == dead {
			deadEntity = row[0]
		} else {
			liveEntity = row[0]
		}
	}
	if deadEntity == "" || liveEntity == "" {
		t.Fatalf("corpus does not cover shard %d and a healthy shard: %v", dead, ents.Rows)
	}
	full, err := cli.SQL(ctx, "SELECT entity, value FROM extracted WHERE attribute = 'population' ORDER BY entity")
	if err != nil {
		t.Fatal(err)
	}

	if err := ss.KillShard(dead); err != nil {
		t.Fatal(err)
	}

	// Healthy traffic keeps flowing under its deadline for the duration.
	probeCtx, stopProbe := context.WithCancel(ctx)
	var probe sync.WaitGroup
	probeErr := make(chan error, 1)
	probe.Add(1)
	go func() {
		defer probe.Done()
		for probeCtx.Err() == nil {
			rctx, cancel := context.WithTimeout(probeCtx, 5*time.Second)
			_, err := cli.Search(rctx, "temperature Madison", 3)
			cancel()
			if err != nil && probeCtx.Err() == nil {
				select {
				case probeErr <- fmt.Errorf("healthy probe failed under shard loss: %w", err):
				default:
				}
				return
			}
		}
	}()

	// Fan-out read: OK response carrying partial data plus the marker.
	resp, err := cli.Do(ctx, &Request{Op: OpSQL, SQL: "SELECT entity, value FROM extracted WHERE attribute = 'population' ORDER BY entity"})
	if err != nil {
		t.Fatalf("degraded fan-out should still answer: %v", err)
	}
	if resp.Degraded == nil || !reflect.DeepEqual(resp.Degraded.Down, []int{dead}) || resp.Degraded.Shards != 4 {
		t.Fatalf("degraded marker: %+v", resp.Degraded)
	}
	if len(resp.Result.Rows) == 0 || len(resp.Result.Rows) >= len(full.Rows) {
		t.Fatalf("partial rows: got %d of %d", len(resp.Result.Rows), len(full.Rows))
	}
	// The partial result is exactly the healthy shards' rows: every
	// surviving entity is off the dead shard, every full-result entity
	// off the dead shard survives.
	wantRows := 0
	for _, row := range full.Rows {
		if ss.Owner(row[0]) != dead {
			wantRows++
		}
	}
	if len(resp.Result.Rows) != wantRows {
		t.Fatalf("partial rows: got %d, want %d healthy-shard rows", len(resp.Result.Rows), wantRows)
	}
	for _, row := range resp.Result.Rows {
		if ss.Owner(row[0]) == dead {
			t.Fatalf("row for dead-shard entity %q in partial result", row[0])
		}
	}

	// Entity routed to the dead shard: typed degraded failure.
	q := fmt.Sprintf("SELECT value FROM extracted WHERE entity = '%s'", deadEntity)
	if _, err := cli.SQL(ctx, q); !errors.Is(err, ErrDegraded) {
		t.Fatalf("dead-shard entity query: got %v, want ErrDegraded", err)
	}
	// Entity on a healthy shard: unaffected.
	q = fmt.Sprintf("SELECT value FROM extracted WHERE entity = '%s'", liveEntity)
	if rs, err := cli.SQL(ctx, q); err != nil || len(rs.Rows) == 0 {
		t.Fatalf("healthy-shard entity query: %v %+v", err, rs)
	}

	// Guided answer degrades to a partial result with the marker.
	aresp, err := cli.Do(ctx, &Request{Op: OpAsk, Query: "population", K: 3})
	if err != nil {
		t.Fatalf("degraded ask should still answer: %v", err)
	}
	if aresp.Degraded == nil || aresp.Guided == nil {
		t.Fatalf("degraded ask: degraded=%+v guided=%v", aresp.Degraded, aresp.Guided != nil)
	}

	// Search returns the healthy shards' hits with the marker: the single
	// engine's full ranking without the dead shard's documents, first k,
	// scores ==.
	dropped := 0
	for _, q := range []string{"temperature Madison", "population", "founded " + deadEntity} {
		sresp, err := cli.Do(ctx, &Request{Op: OpSearch, Query: q, K: 3})
		if err != nil || sresp.Degraded == nil || !reflect.DeepEqual(sresp.Degraded.Down, []int{dead}) || sresp.Degraded.Shards != 4 {
			t.Fatalf("search %q under shard loss: err=%v degraded=%+v", q, err, sresp.Degraded)
		}
		full, err := single.KeywordSearch(ctx, q, single.Corpus.Len())
		if err != nil {
			t.Fatal(err)
		}
		want := []Hit{}
		for _, h := range full {
			switch {
			case len(want) == 3:
			case ss.Owner(h.Title) == dead:
				dropped++
			default:
				want = append(want, Hit{Title: h.Title, Score: h.Score, Snippet: h.Snippet})
			}
		}
		if len(want) == 0 || !reflect.DeepEqual(sresp.Hits, want) {
			t.Fatalf("search %q under shard loss\n got %+v\nwant %+v", q, sresp.Hits, want)
		}
	}
	if dropped == 0 {
		t.Fatal("no full top k held a document of the dead shard: the check compared complete answers")
	}

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 4 || !reflect.DeepEqual(h.ShardsDown, []int{dead}) {
		t.Fatalf("health topology under loss: shards=%d down=%v", h.Shards, h.ShardsDown)
	}

	stopProbe()
	probe.Wait()
	select {
	case err := <-probeErr:
		t.Fatal(err)
	default:
	}
}

// TestShardedDaemonLifecycle runs the real RunDaemon code path with
// Shards set — the same assembly cmd/unidbd compiles: fresh ingest into
// per-shard directories on first open, clean drain on signal, then a
// reopen of the same layout answering the same bytes.
func TestShardedDaemonLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	const q = "SELECT entity, attribute, qualifier, value FROM extracted ORDER BY entity, attribute, qualifier, value LIMIT 25"

	runOnce := func() (rows [][]string, shards int) {
		t.Helper()
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- RunDaemon(DaemonConfig{
				Addr: "127.0.0.1:0", DataDir: dataDir, Shards: 2,
				Cities: 10, People: 4, Filler: 6, Seed: 7, Workers: 2,
				Server:  Options{DrainTimeout: 5 * time.Second},
				Ready:   func(a net.Addr) { addrCh <- a.String() },
				Signals: []os.Signal{syscall.SIGUSR1},
			})
		}()
		var addr string
		select {
		case addr = <-addrCh:
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(60 * time.Second):
			t.Fatal("daemon never became ready")
		}
		cli := dialTest(t, addr)
		ctx := context.Background()
		h, err := cli.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.BufferCapacity == 0 || h.BufferHits+h.BufferMisses == 0 {
			t.Fatalf("sharded health missing aggregated buffer vitals: %+v", h)
		}
		rs, err := cli.SQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		cli.Close()
		if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon drain: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain")
		}
		return rs.Rows, h.Shards
	}

	first, shards := runOnce()
	if shards != 2 {
		t.Fatalf("first life: %d shards, want 2", shards)
	}
	if len(first) == 0 {
		t.Fatal("first life: no rows")
	}
	second, shards := runOnce()
	if shards != 2 {
		t.Fatalf("second life: %d shards, want 2", shards)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("reopen diverged:\nfirst:  %v\nsecond: %v", first, second)
	}
}

// TestShardedDaemonManifestMismatchTyped: the daemon layer surfaces a
// shard-count mismatch as the shard package's typed error — RunDaemon
// refuses before listening, and the caller (cmd/unidbd's exit path, this
// test) can errors.As it rather than pattern-match a message. Regression
// for the PR9 manifest refusal now that PR10 types it.
func TestShardedDaemonManifestMismatchTyped(t *testing.T) {
	dataDir := t.TempDir()
	// A layout pinned at 2 shards, without paying for a full daemon run.
	if err := os.WriteFile(filepath.Join(dataDir, "shards.json"), []byte(`{"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := RunDaemon(DaemonConfig{
		Addr: "127.0.0.1:0", DataDir: dataDir, Shards: 3,
		Cities: 4, People: 2, Filler: 2, Seed: 7, Workers: 1,
		Ready: func(net.Addr) { t.Error("daemon became ready under a mismatched layout") },
	})
	if err == nil {
		t.Fatal("RunDaemon accepted a layout pinned to a different shard count")
	}
	var mm *shard.ShardCountMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("daemon error %v is not a ShardCountMismatchError", err)
	}
	if mm.Pinned != 2 || mm.Asked != 3 {
		t.Fatalf("mismatch carries pinned=%d asked=%d, want 2/3", mm.Pinned, mm.Asked)
	}
}
