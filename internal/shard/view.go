package shard

import (
	"context"
	"errors"
	"sync"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/rdbms"
)

// ShardedView is the cross-shard snapshot handle: one pinned MVCC view
// per healthy shard (a vector of LSNs), nil where a shard is down.
// Every read on the view serves all shards at their pinned LSNs, so a
// multi-statement exploration sees each shard frozen at one point in
// time. Shards that were down at open time are gaps: reads that need
// them return partial results with a *DegradedError.
type ShardedView struct {
	ss    *ShardedSystem
	views []*core.View // index = shard; nil = gap
	down  []int        // shards with no view, ascending
	once  sync.Once
}

// View opens the vector snapshot. At least one shard must be healthy;
// with none, core.ErrClosed is returned (the sharded system is
// effectively closed).
func (ss *ShardedSystem) View(ctx context.Context) (*ShardedView, error) {
	sv := &ShardedView{ss: ss, views: make([]*core.View, len(ss.shards))}
	healthy := map[int]bool{}
	for _, i := range ss.healthy() {
		healthy[i] = true
	}
	opened := 0
	for i := range ss.shards {
		if !healthy[i] {
			sv.down = append(sv.down, i)
			continue
		}
		v, err := ss.shards[i].View(ctx)
		if err != nil {
			if isGap(err) {
				ss.markDown(i)
				sv.down = append(sv.down, i)
				continue
			}
			sv.Close()
			return nil, err
		}
		sv.views[i] = v
		opened++
	}
	if opened == 0 {
		return nil, core.ErrClosed
	}
	return sv, nil
}

// Close releases every pinned per-shard view. Idempotent.
func (sv *ShardedView) Close() {
	sv.once.Do(func() {
		for _, v := range sv.views {
			if v != nil {
				v.Close()
			}
		}
	})
}

// LSNs returns the snapshot vector: one LSN per shard, zero where the
// shard is a gap.
func (sv *ShardedView) LSNs() []rdbms.LSN {
	out := make([]rdbms.LSN, len(sv.views))
	for i, v := range sv.views {
		if v != nil {
			out[i] = v.LSN()
		}
	}
	return out
}

// gapError returns the degraded marker for this view's missing shards
// (nil when every shard answered).
func (sv *ShardedView) gapError(extra []int) *DegradedError {
	down := append(append([]int{}, sv.down...), extra...)
	return sv.ss.degraded(down)
}

// degradedOrNil converts the *DegradedError to a plain error interface
// without the classic non-nil-interface-around-nil-pointer trap.
func degradedOrNil(de *DegradedError) error {
	if de == nil {
		return nil
	}
	return de
}

// AskGuided reformulates against the merged catalog and executes the
// top candidate's SQL across the shard snapshots, averaging coverage
// over the shards that answered. Candidates are identical to a single
// engine's over the same rows (ranking is insertion-order independent).
func (sv *ShardedView) AskGuided(query string, k int) (*core.GuidedAnswer, error) {
	_, reform, catDown, err := sv.ss.shardedCatalog(context.Background())
	if err != nil {
		return nil, err
	}
	cands := reform.Candidates(query, k)
	out := &core.GuidedAnswer{Candidates: cands}
	if len(cands) == 0 {
		return out, degradedOrNil(sv.gapError(catDown))
	}
	top := cands[0]
	rs, err := sv.SQL(top.SQL)
	var de *DegradedError
	if err != nil && !errors.As(err, &de) {
		return nil, err
	}
	out.Answer = rs
	cov, n := 0.0, 0
	for i, v := range sv.views {
		if v == nil {
			continue
		}
		cov += sv.ss.shards[i].Coverage(top.Attribute)
		n++
	}
	if n > 0 {
		out.Coverage = cov / float64(n)
	}
	return out, degradedOrNil(sv.gapError(catDown))
}

// SQL parses a read statement once and executes it across the shard
// snapshots; see the package doc for the routing and merge contract.
func (sv *ShardedView) SQL(query string) (*rdbms.ResultSet, error) {
	return execSharded(sv.ss, query, len(sv.views), func(i int) (*core.View, error) {
		if sv.views[i] == nil {
			return nil, core.ErrClosed
		}
		return sv.views[i], nil
	})
}

// Browse merges every live shard's browser on ascending entity —
// reconstructing the single-engine scan order, since the ingest stream
// is entity-sorted and entities never span shards — into one faceted
// browser over the union (browse.Merge remaps each shard's dictionary
// codes; no row is materialized).
func (sv *ShardedView) Browse() (*browse.Browser, error) {
	var parts []*browse.Browser
	var extra []int
	for i, v := range sv.views {
		if v == nil {
			continue
		}
		b, err := v.Browse()
		if err != nil {
			if isGap(err) {
				sv.ss.markDown(i)
				extra = append(extra, i)
				continue
			}
			return nil, err
		}
		parts = append(parts, b)
	}
	if len(parts) == 0 {
		return nil, core.ErrClosed
	}
	return browse.Merge(parts), degradedOrNil(sv.gapError(extra))
}

// ExplainFact routes to the owning shard's view; a gap there is a
// degraded miss.
func (sv *ShardedView) ExplainFact(entity, attribute, qualifier string) (string, error) {
	owner := sv.ss.Owner(entity)
	v := sv.views[owner]
	if v == nil {
		return "", sv.ss.degraded([]int{owner})
	}
	out, err := v.ExplainFact(entity, attribute, qualifier)
	if err != nil && isGap(err) {
		sv.ss.markDown(owner)
		return "", sv.ss.degraded([]int{owner})
	}
	return out, err
}
