// Package server is the serving front end of the user layer: it exposes
// the DGE exploitation modes (keyword search, guided answering, SQL,
// browsing, subscriptions, corrections, lineage) over a length-prefixed
// JSON protocol on TCP, the way the paper's dataspace system fronts its
// substrates for ordinary applications.
//
// The server is built to stay up under hostile conditions rather than to
// be fast in the happy case only:
//
//   - Admission control: a bounded in-flight semaphore sheds excess load
//     with an immediate typed "overloaded" error instead of queueing
//     unboundedly, and a connection cap refuses connections beyond
//     capacity at accept time.
//   - Deadlines: every request runs under a context deadline that the
//     storage engine checks at scan-loop granularity, so a slow query is
//     cut off mid-scan, releasing its locks.
//   - Connection robustness: per-frame read/write deadlines, a maximum
//     frame size, malformed-frame rejection, and per-connection panic
//     recovery keep one misbehaving client from taking the process down.
//   - Graceful drain: shutdown stops accepting, lets in-flight requests
//     finish under a timeout, then closes the System so the next open is
//     the zero-write clean reopen.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/rdbms"
)

// Frame format: a 4-byte big-endian payload length followed by that many
// bytes of JSON. The length prefix lets the reader reject oversized or
// garbage frames before buffering them.

// DefaultMaxFrame bounds a frame payload (1 MiB): large enough for any
// real request or result page, small enough that a hostile length prefix
// cannot make the server allocate gigabytes.
const DefaultMaxFrame = 1 << 20

// frameHeaderSize is the length prefix size in bytes.
const frameHeaderSize = 4

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// configured maximum — the connection is poisoned and must be closed
// (the remainder of the stream cannot be resynchronized).
var ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")

// writeFrame writes one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload, refusing frames larger
// than max.
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeJSONFrame marshals v and writes it as one frame.
func writeJSONFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, payload)
}

// Request operations.
const (
	OpSearch    = "search"    // Query, K -> Hits
	OpAsk       = "ask"       // Query, K -> Guided
	OpSQL       = "sql"       // SQL -> Result
	OpBrowse    = "browse"    // Refine -> Browse
	OpSubscribe = "subscribe" // User, Entity, Attribute, SubOp, Threshold, MinConf -> SubID
	OpCorrect   = "correct"   // User, Entity, Attribute, Qualifier, Value
	OpExplain   = "explain"   // Entity, Attribute, Qualifier -> Text
	OpHealth    = "health"    // -> Health (admin; bypasses admission control)
)

// Request is one framed client request. Fields are a flat union across
// the operations; unused fields stay at their zero value.
type Request struct {
	ID int64  `json:"id"`
	Op string `json:"op"`

	Query string `json:"query,omitempty"` // search, ask
	K     int    `json:"k,omitempty"`     // search, ask

	SQL string `json:"sql,omitempty"` // sql

	Refine []string `json:"refine,omitempty"` // browse: "facet=value" steps

	User      string  `json:"user,omitempty"`      // subscribe, correct
	Entity    string  `json:"entity,omitempty"`    // subscribe, correct, explain
	Attribute string  `json:"attribute,omitempty"` // subscribe, correct, explain
	Qualifier string  `json:"qualifier,omitempty"` // correct, explain
	Value     string  `json:"value,omitempty"`     // correct
	SubOp     string  `json:"sub_op,omitempty"`    // subscribe: > >= < <= = !=
	Threshold float64 `json:"threshold,omitempty"` // subscribe
	MinConf   float64 `json:"min_conf,omitempty"`  // subscribe

	// TimeoutMs bounds the request server-side. Zero means the server
	// default; the server clamps it to its configured maximum either way.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Error codes carried in responses. The client maps these back to typed
// errors so callers can program against overload and shutdown.
const (
	CodeOverloaded = "overloaded"  // shed by admission control; retry later
	CodeClosed     = "closed"      // server is draining or the system closed
	CodeDeadline   = "deadline"    // the request's deadline expired mid-execution
	CodeCanceled   = "canceled"    // the request's context was canceled
	CodeBadRequest = "bad_request" // malformed or unknown operation / arguments
	CodeTooLarge   = "too_large"   // request frame exceeded the maximum size
	CodeConflict   = "conflict"    // transient concurrency conflict (deadlock); retry
	CodeNotFound   = "not_found"   // no stored fact, or none a document re-derives
	CodeDegraded   = "degraded"    // shards down and no partial result could be served
	CodeInternal   = "internal"    // unexpected server-side failure
)

// WireError is the serialized form of a failed request.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *WireError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Code, e.Message)
}

// Hit mirrors search.Hit on the wire.
type Hit struct {
	Title   string  `json:"title"`
	Score   float64 `json:"score"`
	Snippet string  `json:"snippet,omitempty"`
}

// ResultSet is the wire form of rdbms.ResultSet: rows flattened to
// display strings (the CLI-facing representation; clients needing typed
// access issue narrower queries).
type ResultSet struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Plan    string     `json:"plan,omitempty"`
	Mutated bool       `json:"mutated,omitempty"`
}

func toWireResultSet(rs *rdbms.ResultSet) *ResultSet {
	if rs == nil {
		return nil
	}
	out := &ResultSet{Columns: rs.Columns, Plan: rs.Plan, Mutated: rs.Mutated}
	out.Rows = make([][]string, len(rs.Rows))
	for i, r := range rs.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out.Rows[i] = row
	}
	return out
}

// Guided is the wire form of a guided answer.
type Guided struct {
	Candidates []GuidedCandidate `json:"candidates"`
	Answer     *ResultSet        `json:"answer,omitempty"`
	Coverage   float64           `json:"coverage"`
}

// GuidedCandidate is one ranked structured interpretation.
type GuidedCandidate struct {
	Form      string  `json:"form"`
	SQL       string  `json:"sql"`
	Attribute string  `json:"attribute"`
	Score     float64 `json:"score"`
}

// FacetValue is one bucket of a browse facet.
type FacetValue struct {
	Value string `json:"value"`
	Count int    `json:"count"`
}

// Facet is one navigable browse dimension.
type Facet struct {
	Name   string       `json:"name"`
	Values []FacetValue `json:"values"`
}

// Browse is the wire form of a faceted browsing summary.
type Browse struct {
	Path   string  `json:"path,omitempty"`
	Rows   int     `json:"rows"`
	Facets []Facet `json:"facets"`
}

// Health is the admin view of engine and server vitals (satellite of the
// serving front end: observability without attaching a debugger).
type Health struct {
	ExtractedRows  int   `json:"extracted_rows"`
	InFlightOps    int   `json:"in_flight_ops"` // core operations currently executing
	Closing        bool  `json:"closing"`
	Draining       bool  `json:"draining"`
	ActiveConns    int   `json:"active_conns"`
	Admitted       int64 `json:"admitted"` // requests admitted past the semaphore
	Shed           int64 `json:"shed"`     // requests refused with overloaded
	Served         int64 `json:"served"`   // responses written
	Checkpoints    int64 `json:"checkpoints"`
	WALSyncs       int64 `json:"wal_syncs"`
	IndexesLoaded  int   `json:"indexes_loaded"`  // last open: persisted index checkpoints used
	IndexesRebuilt int   `json:"indexes_rebuilt"` // last open: indexes rebuilt by scan

	// Buffer-pool vitals (PR10): how the larger-than-RAM cache is doing.
	// Counters are summed across shards on a sharded backend; the hit
	// rate is derived from the summed counters.
	BufferHits       int64   `json:"buffer_hits"`
	BufferMisses     int64   `json:"buffer_misses"`
	BufferEvictions  int64   `json:"buffer_evictions"`
	BufferScanBypass int64   `json:"buffer_scan_bypass"` // scan-hinted misses admitted evict-first
	BufferHitRate    float64 `json:"buffer_hit_rate"`
	BufferCapacity   int     `json:"buffer_capacity"` // total frames
	BufferResident   int     `json:"buffer_resident"`
	Shards           int     `json:"shards,omitempty"`      // sharded backend: shard count
	ShardsDown       []int   `json:"shards_down,omitempty"` // sharded backend: dead shard indexes
}

// Degraded marks a response produced without some shards: the data is
// the healthy shards' complete answer, with the dead partitions' rows
// missing (provenance of the gap, not silent truncation).
type Degraded struct {
	Down   []int `json:"down"`   // dead shard indexes, ascending
	Shards int   `json:"shards"` // total shard count
}

// Response is one framed reply. Exactly one result field is set on
// success, matching the request op; Err is set on failure.
type Response struct {
	ID  int64      `json:"id"`
	OK  bool       `json:"ok"`
	Err *WireError `json:"err,omitempty"`

	Hits    []Hit      `json:"hits,omitempty"`
	Guided  *Guided    `json:"guided,omitempty"`
	Result  *ResultSet `json:"result,omitempty"`
	Browse  *Browse    `json:"browse,omitempty"`
	SubID   int        `json:"sub_id,omitempty"`
	Text    string     `json:"text,omitempty"`
	Health  *Health    `json:"health,omitempty"`
	Elapsed int64      `json:"elapsed_us,omitempty"` // server-side execution time

	// Degraded, when set on an OK response, marks a partial result:
	// the named shards were down and their rows are absent.
	Degraded *Degraded `json:"degraded,omitempty"`
}
