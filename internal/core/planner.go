package core

import (
	"context"
	"maps"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/provenance"
)

// This file is the reaction planner: the one place that decides, for any
// incremental reaction (feedback assimilation or source churn), how much
// of the integration tail must recompute — and executes exactly that.
// The feedback and refresh paths share this one executor. It adds the
// streaming mode: on sessions with StreamingRefresh, a full-scope tail
// diffs the rebuilt union against the memoized previous one (scoped by
// provenance.Graph.AffectedIDs plus the FD-repair row sets), re-plans
// incrementally and recomputes only the dirty shards. The contract is
// strict: every mode is byte-identical to a from-scratch union → resolve
// → fuse recompute, pinned by the internal/wrangletest harness.

// tailScope is how much of the integration tail a reaction needs.
type tailScope int

const (
	// tailFull re-plans, re-resolves and re-fuses: the union's content
	// or composition (or the clustering inputs) may have changed.
	tailFull tailScope = iota
	// tailFuseOnly recomputes trust and fusion over the stored
	// clustering: only fusion inputs (value feedback → trust) moved.
	tailFuseOnly
)

// tailMemo is the memoized state of the last integrated tail — what the
// streaming planner diffs a reaction against. All fields describe one
// coherent integration; any tail that fails mid-flight drops the memo
// (the next reaction falls back to a full tail and re-records it).
type tailMemo struct {
	union     *dataset.Table // the previous post-repair union (frozen: rebuilt, never mutated)
	rowKeys   []string
	rowIdx    map[string]int  // row key -> previous union row
	repaired  map[string]bool // row keys FD repair touched building that union
	plan      *er.PlanState
	groups    fusion.Groups // the claims the pages were fused from
	shardKeys [][]string    // per shard: its group keys, as fused
	pages     []*shardPage
	trust     *fusion.TrustMemo
	trustMap  map[string]float64 // the trust the pages were fused under
	fuse      fuseSig
}

// fuseSig is the slice of fusion.Options a fused page depends on beyond
// claims and trust.
type fuseSig struct {
	policy       fusion.Policy
	defaultTrust float64
	tolerance    float64
	now          time.Time
	halfLife     time.Duration
}

func newFuseSig(opts fusion.Options) fuseSig {
	return fuseSig{
		policy:       opts.Policy,
		defaultTrust: opts.DefaultTrust,
		tolerance:    opts.NumericTolerance,
		now:          opts.Now,
		halfLife:     opts.HalfLife,
	}
}

// compatible reports whether pages fused under the signature could be
// reused under opts. Now and HalfLife only matter when votes decay:
// every other policy ignores claim age, so a ticking clock alone must
// not defeat reuse.
func (s fuseSig) compatible(opts fusion.Options) bool {
	if s.policy != opts.Policy || s.defaultTrust != opts.DefaultTrust || s.tolerance != opts.NumericTolerance {
		return false
	}
	if s.policy == fusion.FreshnessWeighted {
		return s.now.Equal(opts.Now) && s.halfLife == opts.HalfLife
	}
	return true
}

// planReaction classifies a batch of feedback into the reaction plan:
// which sources need re-extraction, whether selection must rerun, and
// the tail scope. This is the §2.4 decision table in one place.
func planReaction(items []feedback.Item) (reextract map[string]bool, reselect bool, scope tailScope, tail bool) {
	reextract = map[string]bool{}
	for _, it := range items {
		switch it.Kind {
		case "wrapper_broken":
			reextract[it.SourceID] = true
		case "duplicate", "not_duplicate":
			scope, tail = tailFull, true
		case "value_correct", "value_incorrect":
			if !tail {
				scope, tail = tailFuseOnly, true
			}
		case "source_relevant", "source_irrelevant":
			reselect = true
		}
	}
	return reextract, reselect, scope, tail
}

// runTail executes the integration tail at the given scope as an engine
// graph and fills the reaction stats: per-DAG-stage timings and the
// dirty-shard counts. With streaming enabled and a valid memo, the
// full-scope graph is the partial tail (diff → re-plan → resolve[dirty]
// → trust barrier → fuse[dirty] → merge); the fuse-only graph re-fuses
// over the stored clustering, warm-starting trust and reusing every page
// whose inputs held still on streaming sessions.
func (w *Wrangler) runTail(ctx context.Context, scope tailScope, stats *ReactStats) error {
	start := time.Now()
	if stats.Stages == nil {
		stats.Stages = map[string]time.Duration{}
	}
	// Every tail funnels its trust estimation through w.lastTrust (the
	// cluster barrier writes it); reset first so a tail that never
	// estimates trust — empty union, non-TruthFinder policy — reports
	// zero components, then snapshot whatever the tail recorded on the
	// way out.
	w.lastTrust = fusion.TrustStats{}
	defer func() {
		stats.TrustComponents = w.lastTrust.Components
		stats.TrustRecomputed = w.lastTrust.Recomputed
		stats.TrustGroupsPrepared = w.lastTrust.GroupsPrepared
	}()
	g := engine.NewGraph()
	sr := &shardRun{}
	var err error
	if scope == tailFuseOnly {
		err = w.addFuseOnlyTasks(g, sr)
	} else {
		sr.stream = w.StreamingRefresh && w.memo != nil
		err = w.addIntegrationTasks(g, sr)
	}
	if err != nil {
		return err
	}
	w.instrumentGraph(g)
	if err := g.Run(ctx, w.workers()); err != nil {
		// The tail stopped between stages: the memo no longer describes
		// one coherent integration.
		w.memo = nil
		return err
	}
	for k, d := range stageTimings(g.Timings()) {
		stats.Stages[k] += d
	}
	stats.Stages["integrate"] = time.Since(start)
	stats.ShardsResolved, stats.ShardsReused = sr.resolvedShards()
	if rp := sr.rp; rp != nil {
		stats.AffectedRows = rp.AffectedRows
		stats.DirtyComponents = rp.DirtyComponents
		stats.ReusedComponents = rp.ReusedComponents
		stats.RowsPrepared = rp.RowsPrepared
	}
	return nil
}

// addFuseOnlyTasks wires the trust+fuse+merge tail over the stored
// clustering — the value-feedback reaction. The union and clusters are
// untouched; entity names are recomputed (a pure function of both), the
// claims are grouped and routed along the stored entity→shard routing,
// trust is re-estimated (warm on streaming sessions) and every shard
// re-fuses — or, with streaming, adopts its previous page when its
// claims and trust held still. Without pages the last integration found
// an empty union and already reset the outputs: there is nothing to
// re-fuse, and every stage no-ops.
func (w *Wrangler) addFuseOnlyTasks(g *engine.Graph, sr *shardRun) error {
	sr.fuseOnly = true
	sr.empty = len(w.pages) == 0
	n := max(len(w.pages), 1)
	if err := g.Add("integrate:cluster", func(context.Context) error {
		if sr.empty {
			return nil
		}
		w.entityIDs = w.entityNames()
		sr.fuseInputs(w, n)
		return nil
	}); err != nil {
		return err
	}
	return w.addFuseMergeTasks(g, sr, n, "integrate:cluster")
}

// unionDelta computes the dirty row-key set of the freshly built union
// against the memoized one: rows that appeared or disappeared
// (selection moves, source growth), plus content changes on exactly the
// rows something could have rewritten — rows of sources whose extraction
// artefacts provenance marks as affected by the accumulated source
// changes, and rows FD repair touched in either round. Rows outside
// that scope kept their mapped values and were repaired in neither
// round, so their post-repair content is provably unchanged.
func (w *Wrangler) unionDelta(memo *tailMemo, rowKeys []string) map[string]bool {
	dirty := map[string]bool{}
	newIdx := make(map[string]int, len(rowKeys))
	for i, k := range rowKeys {
		newIdx[k] = i
	}
	for k := range memo.rowIdx {
		if _, ok := newIdx[k]; !ok {
			dirty[k] = true
		}
	}
	for k := range newIdx {
		if _, ok := memo.rowIdx[k]; !ok {
			dirty[k] = true
		}
	}

	// Content scope: provenance names the extractions downstream of the
	// changed sources; FD repair names the rows it rewrote.
	affected := map[string]bool{}
	if len(w.dirtySources) > 0 {
		refs := make([]provenance.Ref, 0, len(w.dirtySources))
		for id := range w.dirtySources {
			affected[id] = true
			refs = append(refs, provenance.Ref{Kind: provenance.KindSource, ID: id})
		}
		for _, id := range w.Prov.AffectedIDs(provenance.KindExtraction, refs...) {
			affected[id] = true
		}
	}
	candidate := map[string]bool{}
	for i, src := range w.unionSources {
		if affected[src] {
			candidate[rowKeys[i]] = true
		}
	}
	for _, row := range w.repairedRows {
		candidate[rowKeys[row]] = true
	}
	for k := range memo.repaired {
		candidate[k] = true
	}
	for k := range candidate {
		oldRow, ok := memo.rowIdx[k]
		if !ok {
			continue // appeared: already dirty
		}
		newRow, ok := newIdx[k]
		if !ok {
			continue // disappeared: already dirty
		}
		if !memo.union.Row(oldRow).Equal(w.union.Row(newRow)) {
			dirty[k] = true
		}
	}
	return dirty
}

// shardFuseReusable reports whether shard i's memoized page is provably
// what fusing the shard's groups would produce again: streaming session,
// compatible fusion options, the same group keys with byte-identical
// claims, and unchanged effective trust for every source claiming in the
// shard.
func (w *Wrangler) shardFuseReusable(sr *shardRun, i int) bool {
	m := w.memo
	if !w.StreamingRefresh || m == nil || i >= len(m.pages) || m.pages[i] == nil || i >= len(m.shardKeys) {
		return false
	}
	if !m.fuse.compatible(sr.opts) || !slices.Equal(m.shardKeys[i], sr.shardKeys[i]) {
		return false
	}
	seen := map[string]bool{}
	for _, k := range sr.shardKeys[i] {
		claims := sr.groups.Claims[k]
		if !fusion.ClaimsEqual(m.groups.Claims[k], claims) {
			return false
		}
		for _, c := range claims {
			if seen[c.SourceID] {
				continue
			}
			seen[c.SourceID] = true
			if fusion.TrustOf(m.trustMap, m.fuse.defaultTrust, c.SourceID) !=
				fusion.TrustOf(sr.opts.Trust, sr.opts.DefaultTrust, c.SourceID) {
				return false
			}
		}
	}
	return true
}

// recordTailMemo captures the just-merged tail as the next reaction's
// diff baseline. A full tail rebuilds the whole memo (and clears the
// accumulated dirty-source scope — everything is integrated now); a
// fuse-only tail updates just the fusion half, since union, plan and
// clusters did not move.
func (w *Wrangler) recordTailMemo(sr *shardRun) {
	if sr.empty {
		w.memo = nil
		return
	}
	if sr.fuseOnly {
		if w.memo == nil {
			return
		}
		w.memo.groups = sr.groups
		w.memo.shardKeys = sr.shardKeys
		w.memo.pages = sr.pages
		w.memo.trust = sr.trustMemo
		w.memo.trustMap = maps.Clone(sr.opts.Trust)
		w.memo.fuse = newFuseSig(sr.opts)
		return
	}
	var ps *er.PlanState
	var err error
	if sr.rp != nil {
		// Streaming round: Commit folds the carried-over and freshly
		// computed pair scores into the next round's cache.
		ps, err = sr.rp.Commit(w.resolver, sr.rowKeys, sr.roots, sr.must, sr.cannot)
	} else {
		ps, err = er.BuildPlanState(w.resolver, sr.plan, sr.rowKeys, sr.roots, sr.must, sr.cannot)
	}
	if err != nil {
		// Defensive: an unrecordable plan just means the next reaction
		// runs a full tail.
		w.memo = nil
		return
	}
	rowIdx := make(map[string]int, len(sr.rowKeys))
	for i, k := range sr.rowKeys {
		rowIdx[k] = i
	}
	repaired := make(map[string]bool, len(w.repairedRows))
	for _, row := range w.repairedRows {
		repaired[sr.rowKeys[row]] = true
	}
	w.memo = &tailMemo{
		union:     w.union,
		rowKeys:   sr.rowKeys,
		rowIdx:    rowIdx,
		repaired:  repaired,
		plan:      ps,
		groups:    sr.groups,
		shardKeys: sr.shardKeys,
		pages:     sr.pages,
		trust:     sr.trustMemo,
		trustMap:  maps.Clone(sr.opts.Trust),
		fuse:      newFuseSig(sr.opts),
	}
	w.dirtySources = nil
}
