package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/synth"
	"repro/internal/uql"
)

// newTestSystem builds an in-memory system with the daemon's demo
// structure generated (cities includes "Madison, Wisconsin").
func newTestSystem(t testing.TB, cities int) *core.System {
	t.Helper()
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: cities, People: 5, Filler: 10, MentionsPerPerson: 2,
	})
	sys, err := core.New(core.Config{Corpus: corpus, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(context.Background(), daemonProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// startServer serves sys on a fresh port and tears everything down with
// the test. It accepts any Backend, so the sharded suite reuses it.
func startServer(t testing.TB, sys Backend, opts Options) (*Server, string) {
	t.Helper()
	srv := New(sys, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		sys.Close()
	})
	return srv, ln.Addr().String()
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	cli, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestServerEndToEnd drives every operation over a real socket.
func TestServerEndToEnd(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})
	cli := dialTest(t, addr)
	ctx := context.Background()

	hits, err := cli.Search(ctx, "average temperature Madison Wisconsin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Title != "Madison, Wisconsin" {
		t.Fatalf("search hits: %+v", hits)
	}

	ans, err := cli.Ask(ctx, "average temperature Madison Wisconsin", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) == 0 || ans.Answer == nil || len(ans.Answer.Rows) == 0 {
		t.Fatalf("guided answer: %+v", ans)
	}

	rs, err := cli.SQL(ctx, "SELECT COUNT(*) FROM extracted WHERE attribute = 'temperature'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] == "0" {
		t.Fatalf("sql result: %+v", rs)
	}

	br, err := cli.Browse(ctx, "attribute=temperature")
	if err != nil {
		t.Fatal(err)
	}
	if br.Rows == 0 || !strings.Contains(br.Path, "temperature") {
		t.Fatalf("browse: %+v", br)
	}

	subID, err := cli.Subscribe(ctx, "alice", "", "temperature", ">", -1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Fatal("no subscription id")
	}

	if err := cli.Correct(ctx, "alice", "Madison, Wisconsin", "temperature", "July", "74.0"); err != nil {
		t.Fatal(err)
	}
	rs, err = cli.SQL(ctx, "SELECT value FROM extracted WHERE entity = 'Madison, Wisconsin' AND qualifier = 'July'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "74.0" {
		t.Fatalf("correction not visible: %+v", rs.Rows)
	}

	text, err := cli.Explain(ctx, "Madison, Wisconsin", "temperature", "September")
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty lineage")
	}

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExtractedRows == 0 || h.Admitted == 0 {
		t.Fatalf("health: %+v", h)
	}
	// PR10 buffer-pool vitals ride the same health surface.
	if h.BufferCapacity == 0 || h.BufferResident == 0 || h.BufferHits+h.BufferMisses == 0 {
		t.Fatalf("health missing buffer vitals: %+v", h)
	}
	if h.BufferHitRate <= 0 || h.BufferHitRate > 1 {
		t.Fatalf("health buffer hit rate %v out of range", h.BufferHitRate)
	}

	// Typed not-found on a bogus fact.
	if err := cli.Correct(ctx, "alice", "Nowhere", "temperature", "July", "1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("correct(nowhere): got %v, want ErrNotFound", err)
	}
	// Typed bad request on garbage op via raw Do.
	if _, err := cli.Do(ctx, &Request{Op: "no-such-op"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op: got %v, want ErrBadRequest", err)
	}
}

// TestServerRequestDeadline: a request-supplied deadline is enforced
// mid-execution and surfaces as the typed deadline error. The statement
// is forced to outlive its 1 ms budget by a table lock the test holds
// past the deadline; once released, the scan's in-loop context polls
// fire. The statement must be a mutation: SELECTs now run against MVCC
// snapshots and never wait on locks, so only the writer path can be
// stalled this way.
func TestServerRequestDeadline(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})
	cli := dialTest(t, addr)

	tx := sys.DB.Begin()
	if _, err := tx.Insert(core.TableName, core.StoreRow(uql.Row{
		Entity: "Blocktown", Attribute: "temperature", Qualifier: "July", Value: "1", Conf: 1,
	})); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := cli.Do(context.Background(), &Request{
			Op: OpSQL, SQL: "DELETE FROM extracted WHERE entity = 'nobody'", TimeoutMs: 1,
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // hold the lock well past the 1 ms budget
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("got %v, want ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline request never returned")
	}

	// The engine is healthy afterwards: the expired statement released
	// its locks.
	rs, err := cli.SQL(context.Background(), "SELECT COUNT(*) FROM extracted")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("follow-up query: %+v", rs)
	}
}

// TestServerOverloadShed: with MaxInFlight=1 and the single slot pinned
// by a blocked request, further requests are shed immediately with the
// typed overloaded error — and health still answers.
func TestServerOverloadShed(t *testing.T) {
	sys := newTestSystem(t, 12)
	srv, addr := startServer(t, sys, Options{MaxInFlight: 1})

	// Pin the admission slot: this transaction's table lock blocks the
	// client's DELETE inside the engine while it holds the only token.
	// (A SELECT would no longer do: snapshot reads don't take locks.)
	tx := sys.DB.Begin()
	if _, err := tx.Insert(core.TableName, core.StoreRow(uql.Row{
		Entity: "Blocktown", Attribute: "temperature", Qualifier: "July", Value: "1", Conf: 1,
	})); err != nil {
		t.Fatal(err)
	}

	blocked := dialTest(t, addr)
	blockedDone := make(chan error, 1)
	go func() {
		_, err := blocked.Do(context.Background(), &Request{
			Op: OpSQL, SQL: "DELETE FROM extracted WHERE entity = 'nobody'", TimeoutMs: 30_000,
		})
		blockedDone <- err
	}()
	// Wait until the request owns the admission token.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if admitted, _, _ := srv.Stats(); admitted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shedCli := dialTest(t, addr)
	if _, err := shedCli.Search(context.Background(), "anything", 3); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if _, shed, _ := srv.Stats(); shed == 0 {
		t.Fatal("shed counter did not move")
	}
	// Health bypasses admission control: it must answer during overload.
	h, err := shedCli.Health(context.Background())
	if err != nil {
		t.Fatalf("health under overload: %v", err)
	}
	if h.InFlightOps == 0 {
		t.Fatalf("health should see the pinned op: %+v", h)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
	// Capacity is back: the same client that was shed now succeeds.
	if _, err := shedCli.Search(context.Background(), "temperature", 3); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestServerConnCap: connections beyond MaxConns are refused at accept
// with one typed overloaded frame (the bounded accept queue).
func TestServerConnCap(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{MaxConns: 1})

	keeper := dialTest(t, addr)
	if _, err := keeper.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	refused, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	refused.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(refused, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("expected a refusal frame: %v", err)
	}
	if !strings.Contains(string(payload), CodeOverloaded) {
		t.Fatalf("refusal payload: %s", payload)
	}
	// The admitted connection keeps working.
	if _, err := keeper.Health(context.Background()); err != nil {
		t.Fatalf("keeper after refusal: %v", err)
	}
}

// TestServerMalformedFrame: JSON garbage inside a well-formed frame gets
// a typed bad-request reply and the connection survives.
func TestServerMalformedFrame(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte("{definitely not json")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), CodeBadRequest) {
		t.Fatalf("payload: %s", payload)
	}
	// Stream is still synchronized: a valid request on the same
	// connection succeeds.
	if err := writeJSONFrame(conn, &Request{ID: 2, Op: OpHealth}); err != nil {
		t.Fatal(err)
	}
	payload, err = readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), `"ok":true`) {
		t.Fatalf("payload: %s", payload)
	}
}

// TestServerOversizedFrame: a frame declaring more than MaxFrameBytes is
// refused with a typed reply and the connection closed (the stream
// cannot resync past an unread body).
func TestServerOversizedFrame(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{MaxFrameBytes: 1024})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), CodeTooLarge) {
		t.Fatalf("payload: %s", payload)
	}
	// The connection is then closed by the server.
	if _, err := readFrame(conn, DefaultMaxFrame); err == nil {
		t.Fatal("expected the poisoned connection to be closed")
	}
}

// TestServerShutdownInProcess: Shutdown completes while a request is in
// flight, the in-flight request finishes, and late requests are refused
// with the typed closed error.
func TestServerShutdownInProcess(t *testing.T) {
	sys := newTestSystem(t, 12)
	srv := New(sys, Options{DrainTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer sys.Close()

	cli := dialTest(t, ln.Addr().String())

	// Pin one request in the engine on a held lock.
	tx := sys.DB.Begin()
	if _, err := tx.Insert(core.TableName, core.StoreRow(uql.Row{
		Entity: "Blocktown", Attribute: "temperature", Qualifier: "July", Value: "1", Conf: 1,
	})); err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() {
		_, err := cli.Do(context.Background(), &Request{
			Op: OpSQL, SQL: "SELECT COUNT(*) FROM extracted", TimeoutMs: 30_000,
		})
		inflight <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if admitted, _, _ := srv.Stats(); admitted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// New connections are refused while draining.
	waitRefused := time.Now().Add(5 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err != nil {
			break
		}
		if time.Now().After(waitRefused) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the lock; the in-flight request completes successfully —
	// drain waited for it instead of cutting it off.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestPoolExhaustedMapsToOverloaded: a buffer pool with every frame
// pinned is a capacity refusal — the wire mapping must type it as
// overloaded (clients back off and retry) and never as an internal
// error. The check is errors.Is on the sentinel, so wrapped variants
// map the same.
func TestPoolExhaustedMapsToOverloaded(t *testing.T) {
	wrapped := fmt.Errorf("select: pin page 12: %w", rdbms.ErrPoolExhausted)
	resp := errResponse(wrapped)
	if resp.OK || resp.Err == nil {
		t.Fatalf("errResponse returned OK for a pool-exhausted error: %+v", resp)
	}
	if resp.Err.Code != CodeOverloaded {
		t.Fatalf("pool exhaustion mapped to %q, want %q", resp.Err.Code, CodeOverloaded)
	}
	// An unrelated engine error still maps to internal.
	if got := errResponse(errors.New("boom")).Err.Code; got != CodeInternal {
		t.Fatalf("generic error mapped to %q, want %q", got, CodeInternal)
	}
}
