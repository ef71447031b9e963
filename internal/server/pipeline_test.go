package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/uql"
)

// rawConn is a test helper speaking the framed protocol directly, so a
// test controls request IDs and response read order.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawConn{t: t, conn: conn}
}

func (rc *rawConn) send(req *Request) {
	rc.t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		rc.t.Fatal(err)
	}
	if err := writeFrame(rc.conn, payload); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) recv() *Response {
	rc.t.Helper()
	raw, err := readFrame(rc.conn, DefaultMaxFrame)
	if err != nil {
		rc.t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		rc.t.Fatal(err)
	}
	return &resp
}

// TestServerPipeliningOutOfOrder: two requests pipelined on one
// connection, the first stalled inside the engine behind a table lock,
// the second fast. The fast one's response arrives first — proof the
// per-request dispatch removed head-of-line blocking — and the stalled
// one completes after the lock releases, correlated by ID.
func TestServerPipeliningOutOfOrder(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})
	rc := dialRaw(t, addr)

	// Stall writer-path statements: hold the extracted table's lock.
	tx := sys.DB.Begin()
	if _, err := tx.Insert(core.TableName, core.StoreRow(uql.Row{
		Entity: "Blocktown", Attribute: "temperature", Qualifier: "July", Value: "1", Conf: 1,
	})); err != nil {
		t.Fatal(err)
	}

	rc.send(&Request{ID: 7, Op: OpSQL, SQL: "DELETE FROM extracted WHERE entity = 'nobody'", TimeoutMs: 30_000})
	rc.send(&Request{ID: 8, Op: OpSearch, Query: "temperature", K: 3})

	first := rc.recv()
	if first.ID != 8 || !first.OK {
		t.Fatalf("first response: id=%d ok=%v err=%+v (want the fast request, id 8)",
			first.ID, first.OK, first.Err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	second := rc.recv()
	if second.ID != 7 || !second.OK {
		t.Fatalf("second response: id=%d ok=%v err=%+v (want the stalled request, id 7)",
			second.ID, second.OK, second.Err)
	}
}

// TestServerOrderedModeID0: requests with ID 0 select the legacy ordered
// mode — executed inline, responses strictly in request order.
func TestServerOrderedModeID0(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})
	rc := dialRaw(t, addr)

	rc.send(&Request{Op: OpSQL, SQL: "SELECT COUNT(*) FROM extracted"})
	rc.send(&Request{Op: OpSearch, Query: "temperature", K: 3})

	first := rc.recv()
	if first.ID != 0 || !first.OK || first.Result == nil {
		t.Fatalf("first ordered response: id=%d ok=%v (want the SQL result)", first.ID, first.OK)
	}
	second := rc.recv()
	if second.ID != 0 || !second.OK || second.Hits == nil {
		t.Fatalf("second ordered response: id=%d ok=%v (want the search hits)", second.ID, second.OK)
	}
}

// TestClientConcurrentMultiplex: many goroutines share one Client; every
// call gets its own matching response over the single multiplexed
// connection.
func TestClientConcurrentMultiplex(t *testing.T) {
	sys := newTestSystem(t, 12)
	_, addr := startServer(t, sys, Options{})
	cli := dialTest(t, addr)

	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0:
					if _, err := cli.Search(ctx, "temperature", 3); err != nil {
						errs <- fmt.Errorf("search: %w", err)
					}
				case 1:
					rs, err := cli.SQL(ctx, "SELECT COUNT(*) FROM extracted")
					if err != nil {
						errs <- fmt.Errorf("sql: %w", err)
					} else if len(rs.Rows) != 1 {
						errs <- fmt.Errorf("sql rows: %d", len(rs.Rows))
					}
				case 2:
					if _, err := cli.Health(ctx); err != nil {
						errs <- fmt.Errorf("health: %w", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
