package server

import (
	"context"
	"errors"
	"strings"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/incremental"
	"tagdm/internal/obs"
	"tagdm/internal/query"
)

// This file is the scatter-gather serving tier: the published read view is
// a set of snapshot replicas (one per shard, all at the same epoch), an
// analyze fans one partial solve per shard onto per-shard worker pools, and
// the gathered partials merge into the answer a single serial solve would
// have produced — byte-identical, because the shards partition the solver's
// search space (see core.SolvePartial) rather than the data, and the merge
// reproduces the serial tie-breaks. With one shard the scatter degenerates
// to the old single-solve path through the very same code.

// shardSet is the published read view: one frozen snapshot replica per
// shard, all at the same epoch. A single atomic pointer swap publishes all
// replicas together, so a scatter always solves one consistent epoch across
// every shard.
type shardSet struct {
	snaps []*incremental.Snapshot
	epoch int64
}

// primary is the replica backing non-scatter reads (stats, epoch gauges,
// group rendering); all replicas are structurally identical.
func (ss *shardSet) primary() *incremental.Snapshot { return ss.snaps[0] }

// captureLocked takes a fresh snapshot of the maintainer and resets the
// unpublished counter. Callers hold s.mu (or are inside New, before the
// server is shared); replication and installation happen outside the lock
// via installSnapshot. The snapshot is copy-on-write over the previous
// epoch, so the time under the lock follows the groups and posting lists
// touched since, not the corpus.
func (s *Server) captureLocked() (*incremental.Snapshot, error) {
	start := time.Now()
	s.maint.Summarize()
	summarized := time.Now()
	snap, err := s.maint.Snapshot()
	if err != nil {
		return nil, err
	}
	s.metrics.publishPhase.With(phaseSummarize).Observe(summarized.Sub(start).Seconds())
	s.metrics.publishPhase.With(phaseFreeze).Observe(time.Since(summarized).Seconds())
	s.unpublished = 0
	return snap, nil
}

// installSnapshot replicates base across the configured shard count and
// publishes the set. Replicas share base's immutable store and groups and
// build only their own engine; it runs outside s.mu all the same, and
// concurrent publishes are ordered by epoch — the compare-and-swap loop
// declines to install only when a strictly newer set already won, so a
// slow install of an old epoch can never clobber a newer published view.
func (s *Server) installSnapshot(base *incremental.Snapshot) error {
	start := time.Now()
	if s.cfg.MatrixBudgetBytes > 0 {
		// Replicas adopt the base engine's cache, so one budget set here
		// governs the whole replica set.
		base.Engine.SetMatrixBudget(s.cfg.MatrixBudgetBytes)
	}
	snaps := make([]*incremental.Snapshot, s.cfg.Shards)
	snaps[0] = base
	for i := 1; i < s.cfg.Shards; i++ {
		rep, err := base.Replicate()
		if err != nil {
			return err
		}
		snaps[i] = rep
	}
	next := &shardSet{snaps: snaps, epoch: base.Version}
	for {
		cur := s.shards.Load()
		if cur != nil && cur.epoch > next.epoch {
			break
		}
		if s.shards.CompareAndSwap(cur, next) {
			break
		}
	}
	s.metrics.snapshots.Inc()
	s.metrics.publishPhase.With(phaseInstall).Observe(time.Since(start).Seconds())
	return nil
}

// publish is capture + install: the snapshot is taken under the write
// lock, replication and the atomic swap happen outside it.
func (s *Server) publish() error {
	s.mu.Lock()
	base, err := s.captureLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.installSnapshot(base)
}

// shardOutcome is one shard's contribution to a scattered analyze.
type shardOutcome struct {
	shard   int
	partial core.Partial
	// merge is the engine the partial ran on; the gather uses shard 0's to
	// merge (all replicas are interchangeable for scoring).
	merge *core.Engine
	spec  core.ProblemSpec
	// empty marks a shard that found no describable groups in scope; all
	// shards agree on it, and the merged response is the empty answer.
	empty   bool
	elapsed time.Duration
}

// runShardPartial executes one shard's slice of a parsed query against that
// shard's snapshot replica. It runs on a pool worker; everything it touches
// is either immutable (the replica) or freshly built here, so concurrent
// executions never share mutable state. The context carries the shard's
// span and the request's cancellation budget.
func (s *Server) runShardPartial(ctx context.Context, snap *incremental.Snapshot, req *query.Request, shard, of int) (*shardOutcome, error) {
	start := time.Now()
	eng := snap.Engine
	n := snap.Store.Len()
	if len(req.Where) > 0 {
		scopeSpan := obs.StartSpan(ctx, "scope")
		scoped, scopedN, err := s.scopedEngine(snap, req.Where)
		scopeSpan.End()
		if err != nil {
			return nil, err
		}
		eng, n = scoped, scopedN
	}
	spec, err := req.Resolve(n)
	if err != nil {
		return nil, err
	}
	out := &shardOutcome{shard: shard, merge: eng, spec: spec}
	if len(eng.Groups) == 0 {
		// An empty universe has no feasible set; short-circuit rather than
		// exercising solver edge cases. Every shard scopes identically, so
		// they all land here together.
		out.empty = true
		out.elapsed = time.Since(start)
		return out, nil
	}
	partial, err := eng.SolvePartial(ctx, spec, core.SolveOptions{
		LSH: core.LSHOptions{Seed: s.cfg.Seed, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	}, shard, of)
	if err != nil {
		return nil, err
	}
	out.partial = partial
	out.elapsed = time.Since(start)
	return out, nil
}

// scatterAnalyze fans a parsed query out as one partial solve per shard,
// gathers the shard outcomes, and merges them into the response a serial
// solve over one snapshot would have produced. Any shard rejecting with a
// full queue fails the whole request fast (errBusy -> 429); any shard error
// cancels the surviving shards.
func (s *Server) scatterAnalyze(ctx context.Context, solveSpan *obs.Span, ss *shardSet, req *query.Request, raw string) (*analyzeResponse, error) {
	start := time.Now()
	of := len(ss.snaps)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One shared result channel with room for every shard: workers never
	// block sending, so an abandoned gather cannot strand a worker.
	done := make(chan poolResult[*shardOutcome], of)
	submitted := 0
	for si := range ss.snaps {
		shard := si
		snap := ss.snaps[si]
		span := solveSpan.StartChild("shard")
		span.SetAttr("shard", shard)
		err := s.pools[shard].submit(gctx, done, func(jctx context.Context) (*shardOutcome, error) {
			defer span.End()
			return s.runShardPartial(obs.WithSpan(jctx, span), snap, req, shard, of)
		})
		if err != nil {
			// errBusy/errClosed. The deferred cancel makes already-queued
			// sibling jobs no-op at pick-up; nobody reads their results, the
			// buffered channel absorbs them.
			span.End()
			return nil, err
		}
		submitted++
	}

	outs := make([]*shardOutcome, 0, of)
	var firstErr error
	//tagdm:cancellable gather loop; request cancellation abandons the scatter
	for pending := submitted; pending > 0; pending-- {
		select {
		case res := <-done:
			if res.err != nil {
				// Prefer a real solver error over the context cancellations
				// it induces in sibling shards.
				if firstErr == nil || (isCtxErr(firstErr) && !isCtxErr(res.err)) {
					firstErr = res.err
				}
				cancel()
				continue
			}
			outs = append(outs, res.val)
		case <-ctx.Done():
			// Timeout or client gone: abandon the gather. Workers hold gctx
			// (a child of ctx) and stop at their next cancellation check.
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		if isCtxErr(firstErr) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}

	first := outs[0]
	resp := &analyzeResponse{Query: strings.TrimSpace(raw), Epoch: ss.epoch, spec: &first.spec}
	if first.empty {
		resp.Groups = []GroupResult{}
		resp.SolveMillis = float64(time.Since(start)) / 1e6
		return resp, nil
	}
	parts := make([]core.Partial, len(outs))
	var maxElapsed time.Duration
	for i, out := range outs {
		parts[i] = out.partial
		s.metrics.shardSolves.With(shardLabels[out.shard]).Inc()
		s.metrics.shardSolveSeconds.With(shardLabels[out.shard]).Observe(out.elapsed.Seconds())
		if out.elapsed > maxElapsed {
			maxElapsed = out.elapsed
		}
	}
	res, err := first.merge.MergePartials(first.spec, parts, start)
	if err != nil {
		return nil, err
	}
	s.metrics.recordSolve(res, maxElapsed, time.Since(start))
	resp.Found = res.Found
	resp.Algorithm = res.Algorithm
	resp.Objective = res.Objective
	resp.Support = res.Support
	resp.Groups = make([]GroupResult, len(res.Groups))
	for i, g := range res.Groups {
		resp.Groups[i] = GroupResult{Description: g.Describe(ss.primary().Store), Size: g.Size()}
	}
	resp.SolveMillis = float64(time.Since(start)) / 1e6
	return resp, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
