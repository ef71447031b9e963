package server

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/shard"
)

// degradedInfo extracts the shard-loss marker from an error, if any.
// A degraded error ALONGSIDE a non-nil result means the healthy shards
// answered and the response ships partial data with the gap declared;
// a degraded error with no result is a plain typed failure.
func degradedInfo(err error) *Degraded {
	var de *shard.DegradedError
	if errors.As(err, &de) {
		return &Degraded{Down: de.Down, Shards: de.Shards}
	}
	return nil
}

// handle dispatches one admitted request to the backend under ctx.
func (s *Server) handle(ctx context.Context, req *Request) *Response {
	switch req.Op {
	case OpSearch:
		k := req.K
		if k <= 0 {
			k = 10
		}
		hits, err := s.sys.KeywordSearch(ctx, req.Query, k)
		var deg *Degraded
		if err != nil {
			// A sharded search's degraded error always comes with the
			// healthy shards' hits, which may be none.
			if deg = degradedInfo(err); deg == nil {
				return errResponse(err)
			}
		}
		out := make([]Hit, len(hits))
		for i, h := range hits {
			out[i] = Hit{Title: h.Title, Score: h.Score, Snippet: h.Snippet}
		}
		return &Response{OK: true, Hits: out, Degraded: deg}

	case OpAsk:
		k := req.K
		if k <= 0 {
			k = 5
		}
		ans, err := s.sys.AskGuided(ctx, req.Query, k)
		var deg *Degraded
		if err != nil {
			if deg = degradedInfo(err); deg == nil || ans == nil {
				return errResponse(err)
			}
		}
		g := &Guided{Coverage: ans.Coverage, Answer: toWireResultSet(ans.Answer)}
		for _, c := range ans.Candidates {
			g.Candidates = append(g.Candidates, GuidedCandidate{
				Form: c.Form(), SQL: c.SQL, Attribute: c.Attribute, Score: c.Score,
			})
		}
		return &Response{OK: true, Guided: g, Degraded: deg}

	case OpSQL:
		if strings.TrimSpace(req.SQL) == "" {
			return badRequest("sql: empty statement")
		}
		rs, err := s.sys.SQL(ctx, req.SQL)
		var deg *Degraded
		if err != nil {
			if deg = degradedInfo(err); deg == nil || rs == nil {
				return errResponse(err)
			}
		}
		return &Response{OK: true, Result: toWireResultSet(rs), Degraded: deg}

	case OpBrowse:
		b, err := s.sys.Browse(ctx)
		var deg *Degraded
		if err != nil {
			if deg = degradedInfo(err); deg == nil || b == nil {
				return errResponse(err)
			}
		}
		for _, step := range req.Refine {
			facet, value, ok := strings.Cut(step, "=")
			if !ok {
				return badRequest(fmt.Sprintf("browse: refinement %q is not facet=value", step))
			}
			if err := b.Refine(facet, value); err != nil {
				return badRequest(err.Error())
			}
		}
		out := &Browse{Path: b.Path(), Rows: b.Count()}
		for _, f := range b.Facets() {
			wf := Facet{Name: f.Name}
			if len(f.Values) > 0 {
				wf.Values = make([]FacetValue, len(f.Values))
			}
			for i, v := range f.Values {
				wf.Values[i] = FacetValue{Value: v.Value, Count: v.Count}
			}
			out.Facets = append(out.Facets, wf)
		}
		return &Response{OK: true, Browse: out, Degraded: deg}

	case OpSubscribe:
		id, err := s.sys.Subscribe(alert.Subscription{
			User: req.User, Entity: req.Entity, Attribute: req.Attribute,
			Op: alert.Op(req.SubOp), Threshold: req.Threshold, MinConf: req.MinConf,
		})
		if err != nil {
			if errors.Is(err, core.ErrClosed) {
				return errResponse(err)
			}
			return badRequest(err.Error())
		}
		return &Response{OK: true, SubID: id}

	case OpCorrect:
		if req.Entity == "" || req.Attribute == "" {
			return badRequest("correct: entity and attribute required")
		}
		err := s.sys.CorrectValue(ctx, req.User, req.Entity, req.Attribute, req.Qualifier, req.Value)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}

	case OpExplain:
		text, err := s.sys.ExplainFact(ctx, req.Entity, req.Attribute, req.Qualifier)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Text: text}

	default:
		return badRequest(fmt.Sprintf("unknown op %q", req.Op))
	}
}

// handleHealth assembles the engine and server vitals. It runs outside
// admission control and tolerates a closed system: health must answer
// during overload and during drain. A sharded backend additionally
// reports its topology and which shards are down.
func (s *Server) handleHealth() *Response {
	h := &Health{
		InFlightOps: s.sys.InFlightOps(),
		Closing:     s.sys.Closing(),
		Draining:    s.isDraining(),
		ActiveConns: s.ActiveConns(),
	}
	h.Admitted, h.Shed, h.Served = s.Stats()
	if rows, err := s.sys.ExtractedRows(); err == nil {
		h.ExtractedRows = rows
	}
	es := s.sys.EngineStats()
	h.Checkpoints = es.Checkpoints
	h.WALSyncs = es.WALSyncs
	h.IndexesLoaded, h.IndexesRebuilt = es.IndexesLoaded, es.IndexesRebuilt
	h.BufferHits, h.BufferMisses = es.BufferHits, es.BufferMisses
	h.BufferEvictions, h.BufferScanBypass = es.BufferEvictions, es.BufferScanBypass
	h.BufferCapacity, h.BufferResident = es.BufferCapacity, es.BufferResident
	if total := es.BufferHits + es.BufferMisses; total > 0 {
		h.BufferHitRate = float64(es.BufferHits) / float64(total)
	}
	if sb, ok := s.sys.(shardedBackend); ok {
		h.Shards = sb.Shards()
		h.ShardsDown = sb.DownShards()
	}
	return &Response{OK: true, Health: h}
}

func badRequest(msg string) *Response {
	return &Response{OK: false, Err: &WireError{Code: CodeBadRequest, Message: msg}}
}

// errResponse maps an execution error to its wire code. The mapping is
// the contract clients program against: overload and shutdown are typed,
// deadline expiry is distinguishable from failure, deadlock aborts are
// marked retryable.
func errResponse(err error) *Response {
	code := CodeInternal
	var de *shard.DegradedError
	switch {
	case errors.Is(err, ErrOverloaded):
		code = CodeOverloaded
	case errors.Is(err, rdbms.ErrPoolExhausted):
		// Every buffer frame pinned is a capacity refusal, not an
		// internal fault: typed like admission shedding so clients back
		// off and retry instead of treating it as a server bug.
		code = CodeOverloaded
	case errors.As(err, &de):
		// Result-less shard loss (e.g. an entity routed to a dead
		// shard): typed so clients can distinguish "partition gone"
		// from internal failure.
		code = CodeDegraded
	case errors.Is(err, shard.ErrReadOnly), errors.Is(err, shard.ErrUnsupported),
		errors.Is(err, rdbms.ErrNotGrouped), errors.Is(err, rdbms.ErrIntegerOverflow):
		code = CodeBadRequest
	case errors.Is(err, ErrDraining), errors.Is(err, core.ErrClosed):
		code = CodeClosed
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadline
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	case errors.Is(err, rdbms.ErrDeadlock):
		code = CodeConflict
	case errors.Is(err, core.ErrNotFound):
		code = CodeNotFound
	}
	return &Response{OK: false, Err: &WireError{Code: code, Message: err.Error()}}
}
