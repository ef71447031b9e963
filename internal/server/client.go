package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Typed client-side errors for the codes callers branch on. A server
// error response unwraps to one of these via errors.Is; the full wire
// message rides along in the error text.
var (
	// ErrServerClosed: the server is draining or its system has closed.
	ErrServerClosed = errors.New("server: closed")
	// ErrDeadline: the request's server-side deadline expired.
	ErrDeadline = errors.New("server: deadline exceeded")
	// ErrConflict: transient concurrency conflict (deadlock); retryable.
	ErrConflict = errors.New("server: conflict")
	// ErrBadRequest: the server rejected the request as malformed.
	ErrBadRequest = errors.New("server: bad request")
	// ErrNotFound: no stored fact, or (explain) none a document re-derives.
	ErrNotFound = errors.New("server: not found")
	// ErrDegraded: shards were down and no partial result could be
	// served for this request (partial results arrive as OK responses
	// with Response.Degraded set instead).
	ErrDegraded = errors.New("server: degraded")
)

// codeErr maps a wire code to its typed sentinel (nil = untyped).
func codeErr(code string) error {
	switch code {
	case CodeOverloaded:
		return ErrOverloaded
	case CodeClosed:
		return ErrServerClosed
	case CodeDeadline:
		return ErrDeadline
	case CodeCanceled:
		return context.Canceled
	case CodeConflict:
		return ErrConflict
	case CodeBadRequest, CodeTooLarge:
		return ErrBadRequest
	case CodeNotFound:
		return ErrNotFound
	case CodeDegraded:
		return ErrDegraded
	}
	return nil
}

// wireToError converts a failed response to a client error that both
// carries the server's message and unwraps to the matching sentinel.
func wireToError(we *WireError) error {
	if we == nil {
		return errors.New("server: missing error detail")
	}
	if sentinel := codeErr(we.Code); sentinel != nil {
		return fmt.Errorf("%w: %s", sentinel, we.Message)
	}
	return we
}

// Client speaks the framed protocol to a unidbd server over one TCP
// connection. Safe for concurrent use, and since PR7 concurrent calls
// are multiplexed rather than serialized: every request carries a unique
// nonzero ID, a single reader goroutine routes response frames back to
// their waiting callers by ID, and writes are serialized per frame — so
// N goroutines sharing one Client pipeline N requests down one
// connection, and a slow statement does not head-of-line-block the rest.
type Client struct {
	conn     net.Conn
	maxFrame int

	writeMu sync.Mutex // serializes request frames on the wire
	nextID  atomic.Int64

	mu      sync.Mutex // guards pending and readErr
	pending map[int64]chan doResult
	readErr error // reader goroutine's terminal error; fails all calls
}

// doResult is what the reader goroutine delivers to a waiting Do call.
type doResult struct {
	resp *Response
	err  error
}

// Dial connects to a unidbd server and starts the response reader.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, maxFrame: DefaultMaxFrame, pending: map[int64]chan doResult{}}
	go c.readLoop()
	return c, nil
}

// Close releases the connection; in-flight calls fail promptly.
func (c *Client) Close() error {
	return c.conn.Close()
}

// readLoop is the single connection reader: it decodes each response
// frame and hands it to the Do call whose request ID matches. A response
// for an ID nobody waits on (a caller that already timed out locally) is
// dropped. On a read error — server gone, connection closed — every
// pending and future call fails with that error.
func (c *Client) readLoop() {
	for {
		raw, err := readFrame(c.conn, c.maxFrame)
		if err != nil {
			c.failAll(err)
			return
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			c.failAll(fmt.Errorf("server: undecodable response: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- doResult{resp: &resp} // buffered; never blocks the reader
		}
	}
}

// failAll poisons the client: every pending call and every later call
// gets the reader's terminal error.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- doResult{err: err}
	}
}

// forget abandons a pending request (local timeout); its eventual
// response, if any, is dropped by the reader.
func (c *Client) forget(id int64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Do sends one request and waits for its response; concurrent Do calls
// share the connection. The context's deadline travels to the server
// (TimeoutMs) and also bounds the local wait — with a grace beyond the
// request deadline so the server can deliver its own typed deadline
// error before the client gives up — so a dead server cannot hang the
// caller.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.ID = c.nextID.Add(1)
	wait := 2 * time.Minute
	if d, ok := ctx.Deadline(); ok {
		if req.TimeoutMs == 0 {
			req.TimeoutMs = time.Until(d).Milliseconds()
			if req.TimeoutMs < 1 {
				req.TimeoutMs = 1
			}
		}
		wait = time.Until(d) + 5*time.Second
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	ch := make(chan doResult, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	err = writeFrame(c.conn, payload)
	c.writeMu.Unlock()
	if err != nil {
		c.forget(req.ID)
		return nil, err
	}

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		if !res.resp.OK {
			return nil, wireToError(res.resp.Err)
		}
		return res.resp, nil
	case <-timer.C:
		c.forget(req.ID)
		return nil, fmt.Errorf("server: no response to request %d within %v", req.ID, wait)
	}
}

// Search runs keyword search.
func (c *Client) Search(ctx context.Context, query string, k int) ([]Hit, error) {
	resp, err := c.Do(ctx, &Request{Op: OpSearch, Query: query, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Ask runs the guided keyword-to-structured flow.
func (c *Client) Ask(ctx context.Context, query string, k int) (*Guided, error) {
	resp, err := c.Do(ctx, &Request{Op: OpAsk, Query: query, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Guided, nil
}

// SQL executes one SQL statement.
func (c *Client) SQL(ctx context.Context, stmt string) (*ResultSet, error) {
	resp, err := c.Do(ctx, &Request{Op: OpSQL, SQL: stmt})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Browse fetches a faceted browsing summary after applying refinements
// ("facet=value" steps).
func (c *Client) Browse(ctx context.Context, refine ...string) (*Browse, error) {
	resp, err := c.Do(ctx, &Request{Op: OpBrowse, Refine: refine})
	if err != nil {
		return nil, err
	}
	return resp.Browse, nil
}

// Subscribe registers a standing query and returns its id.
func (c *Client) Subscribe(ctx context.Context, user, entity, attribute, op string, threshold, minConf float64) (int, error) {
	resp, err := c.Do(ctx, &Request{
		Op: OpSubscribe, User: user, Entity: entity, Attribute: attribute,
		SubOp: op, Threshold: threshold, MinConf: minConf,
	})
	if err != nil {
		return 0, err
	}
	return resp.SubID, nil
}

// Correct applies a human correction to one extracted fact.
func (c *Client) Correct(ctx context.Context, user, entity, attribute, qualifier, value string) error {
	_, err := c.Do(ctx, &Request{
		Op: OpCorrect, User: user, Entity: entity, Attribute: attribute,
		Qualifier: qualifier, Value: value,
	})
	return err
}

// Explain fetches the lineage of one extracted fact.
func (c *Client) Explain(ctx context.Context, entity, attribute, qualifier string) (string, error) {
	resp, err := c.Do(ctx, &Request{Op: OpExplain, Entity: entity, Attribute: attribute, Qualifier: qualifier})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Health fetches engine and server vitals (never admission-controlled).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	resp, err := c.Do(ctx, &Request{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	return resp.Health, nil
}
