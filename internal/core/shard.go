package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/intern"
	"repro/internal/provenance"
	"repro/internal/serve"
)

// This file is the integration tail: the union is partitioned by
// blocking key (er.ShardPlan), every shard resolves and fuses as an
// independent engine task, and shard outputs merge with a stable,
// provider-order-independent merge. The contract is strict: at every
// shard count — one by default — the merged table, report, results,
// trust and provenance are byte-identical to a from-scratch union →
// resolve → fuse recompute (pinned by the internal/wrangletest
// determinism harness). Sharding buys two things — the tail fans out
// instead of being the run's Amdahl ceiling, and publication is
// incremental: each shard's fused rows form an immutable page, and a
// reaction that leaves a shard's rows unchanged publishes a version
// sharing that page's records with its predecessor (O(changed shard)
// publication instead of a full deep copy).

// shardPage is one shard's slice of the wrangled output: its fused
// entities (sorted), one record per entity, and the shard's fused
// results. Records are immutable once built — published versions alias
// them, so nothing may ever write through a page.
type shardPage struct {
	entities []string
	rows     []dataset.Record
	results  []fusion.Result
}

// rowsEqual reports whether two pages fuse the same entities to the same
// values — the condition under which the new page may share the old
// page's records instead of carrying fresh allocations.
func (p *shardPage) rowsEqual(q *shardPage) bool {
	if p == nil || q == nil || len(p.entities) != len(q.entities) {
		return false
	}
	for i := range p.entities {
		if p.entities[i] != q.entities[i] || !p.rows[i].Equal(q.rows[i]) {
			return false
		}
	}
	return true
}

// shardRun is the scratch state one integration passes between its
// engine tasks. Each field is written by exactly one stage and only read
// after the barrier that stage feeds.
type shardRun struct {
	plan         *er.ShardPlan
	must, cannot []er.Pair
	rowKeys      []string      // plan stage: stable key per union row
	roots        []map[int]int // resolve fan-out: shard -> row -> cluster representative
	// Cluster barrier: the tail's claims grouped once by (entity,
	// attribute) — the grouping trust estimation and every shard's fuse
	// share — each shard's group keys (sorted) and each group's owner
	// shard, aligned with groups.Keys; opts carries the estimated trust.
	groups    fusion.Groups
	shardKeys [][]string
	keyShard  []int
	opts      fusion.Options
	pages     []*shardPage // fuse fan-out
	empty     bool         // nothing to integrate; all stages no-op

	// Streaming bookkeeping. stream selects the incremental re-plan in
	// the plan stage; fuseOnly marks a trust+fusion tail reusing the
	// stored clustering. reused records which shards skipped resolution;
	// trustMemo carries the warm trust state into the recorded memo.
	stream    bool
	fuseOnly  bool
	rp        *er.RePlanned // streaming plan stage: per-shard reuse and dirty residue
	reused    []bool
	trustMemo *fusion.TrustMemo
}

// resolvedShards counts the shards whose clusters were computed (not
// reused) this tail.
func (sr *shardRun) resolvedShards() (resolved, reused int) {
	if sr.fuseOnly {
		// A fuse-only tail reuses every shard's clusters by construction.
		return 0, len(sr.pages)
	}
	for i := range sr.pages {
		if i < len(sr.reused) && sr.reused[i] {
			reused++
		} else {
			resolved++
		}
	}
	return resolved, reused
}

// addIntegrationTasks wires the integration tail into g after deps: plan
// (union + blocking partition, or the incremental re-plan when sr.stream
// is set) → resolve[shard] fan-out (skipping shards whose clusters
// carried over) → cluster barrier (merge clusters, name entities,
// estimate trust globally — warm-started on streaming sessions) →
// fuse[shard] fan-out (reusing pages whose claims and trust are
// unchanged) → merge.
func (w *Wrangler) addIntegrationTasks(g *engine.Graph, sr *shardRun, deps ...string) error {
	n := w.shards()
	if err := g.Add("integrate:plan", func(context.Context) error {
		return w.shardPlanStage(sr, n)
	}, deps...); err != nil {
		return err
	}
	resolveIDs, err := g.AddFanOut("resolve", n, func(_ context.Context, i int) error {
		return w.shardResolveStage(sr, i)
	}, "integrate:plan")
	if err != nil {
		return err
	}
	if err := g.Add("integrate:cluster", func(context.Context) error {
		return w.shardClusterStage(sr)
	}, resolveIDs...); err != nil {
		return err
	}
	return w.addFuseMergeTasks(g, sr, n, "integrate:cluster")
}

// addFuseMergeTasks wires the back half of the tail — the
// fuse[shard] fan-out and the merge barrier — shared by the full
// integration pipeline and the planner's fuse-only tail
// (addFuseOnlyTasks), so the two paths cannot drift apart in task ids
// (which stage attribution matches on) or dependency shape.
func (w *Wrangler) addFuseMergeTasks(g *engine.Graph, sr *shardRun, n int, deps ...string) error {
	fuseIDs, err := g.AddFanOut("fuse", n, func(_ context.Context, i int) error {
		w.shardFuseStage(sr, i)
		return nil
	}, deps...)
	if err != nil {
		return err
	}
	return g.Add("integrate:merge", func(context.Context) error {
		return w.shardMergeStage(sr)
	}, fuseIDs...)
}

// shardPlanStage builds the union (FD repair, resolver refinement from
// feedback) and partitions it into blocking shards. Cross-shard blocks
// cannot exist by construction: the plan routes whole block-connected
// components, keyed by their smallest stable row key, to a deterministic
// owner shard. On a streaming tail (sr.stream) the partition is computed
// incrementally instead: the dirty-row diff against the memoized union
// drives er.RePlan, which re-blocks only changed rows and hands back the
// previous clusters of every shard the delta provably did not touch.
func (w *Wrangler) shardPlanStage(sr *shardRun, n int) error {
	memo := w.memo
	empty, err := w.buildUnion()
	if err != nil {
		return err
	}
	if empty {
		sr.empty = true
		return nil
	}
	sr.must, sr.cannot = w.pairConstraints()
	sr.rowKeys = w.rowKeys()
	sr.roots = make([]map[int]int, n)
	sr.reused = make([]bool, n)
	if w.StreamingRefresh {
		// Streaming sessions always plan through RePlan: with a memoized
		// previous tail the diff drives incremental re-planning; without
		// one (a full run, or after an invalidated memo) RePlan degrades
		// to a fresh plan whose resolve still seeds the cross-round score
		// cache, so the very next reaction starts warm.
		var dirty map[string]bool
		var prevPlan *er.PlanState
		if sr.stream && memo != nil {
			dirty = w.unionDelta(memo, sr.rowKeys)
			prevPlan = memo.plan
		}
		rp, err := w.resolver.RePlan(w.union, n, sr.must, sr.cannot, sr.rowKeys, dirty, prevPlan)
		if err != nil {
			return fmt.Errorf("core: resolve: %w", err)
		}
		sr.plan = rp.Plan
		sr.rp = rp
		sr.reused = rp.Reused
		for i := range rp.Roots {
			if rp.Reused[i] {
				// Clusters carried over whole; the resolve task will no-op.
				sr.roots[i] = rp.Roots[i]
			}
		}
		return nil
	}
	plan, err := w.resolver.PlanShards(w.union, n, sr.must, sr.rowKeys)
	if err != nil {
		return fmt.Errorf("core: resolve: %w", err)
	}
	sr.plan = plan
	return nil
}

// shardResolveStage clusters one shard. It reads only immutable run state
// (union rows, the plan, the refined resolver) and writes only its own
// slot, so the fan-out needs no locks. On a streaming tail, shards whose
// clusters the re-plan carried over whole skip scoring entirely, and
// mixed shards score only their dirty components' rows — the clean
// components' clusters are already translated into the roots slot.
func (w *Wrangler) shardResolveStage(sr *shardRun, i int) error {
	if sr.empty || (i < len(sr.reused) && sr.reused[i]) {
		return nil
	}
	if sr.rp != nil {
		roots, _, err := sr.rp.ResolveDirty(w.resolver, w.union, i, sr.must, sr.cannot)
		if err != nil {
			return fmt.Errorf("core: resolve shard %d: %w", i, err)
		}
		merged := sr.rp.Roots[i] // this task owns shard i's slot
		for row, root := range roots {
			merged[row] = root
		}
		sr.roots[i] = merged
		return nil
	}
	roots, _, err := w.resolver.ResolveShard(w.union, sr.plan, i, sr.must, sr.cannot)
	if err != nil {
		return fmt.Errorf("core: resolve shard %d: %w", i, err)
	}
	sr.roots[i] = roots
	return nil
}

// shardClusterStage is the barrier between the two fan-outs: it merges
// the per-shard clusterings into the global dense clustering (numbered
// as one whole-union resolve numbers it), names entities, routes each
// entity to an owner shard, and runs the one stage of fusion that is
// inherently global — TruthFinder's trust fixpoint over the full claim
// set.
func (w *Wrangler) shardClusterStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	clusters, err := sr.plan.MergeRoots(sr.roots)
	if err != nil {
		return err
	}
	w.clusters = clusters
	w.Prov.Put(provenance.Ref{Kind: provenance.KindCluster, ID: "union"}, "er.Resolve", w.mappingRefs(w.selectedIDs()), "")
	w.entityIDs = w.entityNames()
	// An entity's claims fuse in its owning shard: the shard of its first
	// union row. Clusters never span shards, but two clusters in
	// different shards can share a most-frequent key and hence an entity
	// name — fusion groups their claims together, so the first-row owner
	// takes all of them (rows are only read, so a shard may read rows it
	// does not own).
	entityShard := make(map[string]int, clusters.Num)
	for i, e := range w.entityIDs {
		if _, ok := entityShard[e]; !ok {
			entityShard[e] = sr.plan.RowShard[i]
		}
	}
	// Kept on the wrangler: a later fuse-only reaction reuses this
	// routing, since trust changes never move an entity's shard.
	w.entityShard = entityShard
	sr.fuseInputs(w, sr.plan.NumShards)
	return nil
}

// fuseInputs builds the tail's claims, groups them once by (entity,
// attribute), runs the global trust stage over that grouping and routes
// every group to its entity's owner shard (w.entityShard) for the fuse
// fan-out. Runs inside the single cluster-barrier task.
func (sr *shardRun) fuseInputs(w *Wrangler, n int) {
	sr.groups = fusion.GroupClaims(w.buildClaims())
	sr.estimateTrust(w)
	sr.shardKeys, sr.keyShard, _ = partitionGroups(sr.groups, w.entityShard, n)
	sr.pages = make([]*shardPage, n)
}

// partitionGroups routes each group to the shard owning its entity. The
// per-shard key lists are carved out of one counted slab and keep the
// global sorted key order; keyShard gives each g.Keys entry's shard. ok
// is false when some group's entity has no owner in entityShard (such a
// group is routed to shard 0).
func partitionGroups(g fusion.Groups, entityShard map[string]int, n int) (shardKeys [][]string, keyShard []int, ok bool) {
	ok = true
	keyShard = make([]int, len(g.Keys))
	counts := make([]int, n)
	for i, k := range g.Keys {
		s, known := entityShard[g.Claims[k][0].Entity]
		ok = ok && known
		keyShard[i] = s
		counts[s]++
	}
	slab := make([]string, len(g.Keys))
	shardKeys = make([][]string, n)
	off := 0
	for s, c := range counts {
		shardKeys[s] = slab[off : off : off+c]
		off += c
	}
	for i, k := range g.Keys {
		s := keyShard[i]
		shardKeys[s] = append(shardKeys[s], k)
	}
	return shardKeys, keyShard, ok
}

// estimateTrust runs the one cross-shard stage of fusion over the tail's
// grouped claims, fanning the fixpoint's trust-coupled components out
// over the session's workers (byte-identical to sequential at any
// count). On streaming sessions the TruthFinder fixpoint warm-starts
// from the memoized group state — unchanged (entity, attribute) groups
// keep their prepared buckets, and the short-circuit is per component:
// a reaction that dirties one component's claims re-iterates that
// component only, adopting the others' memoized trust (and when nothing
// relevant changed at all, no component iterates). Either way the result
// is float-exact with the cold estimation. Runs inside the single
// cluster-barrier task, so writing w.lastTrust is race-free.
func (sr *shardRun) estimateTrust(w *Wrangler) {
	if !w.StreamingRefresh {
		sr.opts, w.lastTrust = sr.groups.EstimateTrust(w.fusionOptions(), w.workers())
		return
	}
	var prev *fusion.TrustMemo
	if w.memo != nil {
		prev = w.memo.trust
	}
	sr.opts, sr.trustMemo, _, w.lastTrust = sr.groups.EstimateTrustWarm(w.fusionOptions(), prev, w.workers())
}

// shardFuseStage fuses one shard's groups under the globally estimated
// trust and materialises the shard's page. Each group holds its claims
// in row order, as a whole-union fuse sees them — bucket
// representatives and vote accumulation match bit for bit — and votes
// over the buckets the trust estimation already prepared for it. When the
// shard's claims and the effective trust of every source claiming in it
// are unchanged from the memoized tail, the previous page — entities,
// records and results — is adopted by reference instead: fusion
// provably could not produce anything else.
func (w *Wrangler) shardFuseStage(sr *shardRun, i int) {
	if sr.empty {
		return
	}
	if w.shardFuseReusable(sr, i) {
		sr.pages[i] = w.memo.pages[i]
		return
	}
	results := sr.groups.Fuse(sr.shardKeys[i], sr.opts)
	entities, rows := materialize(results, w.Config.Target)
	sr.pages[i] = &shardPage{entities: entities, rows: rows, results: results}
}

// shardMergeStage merges the shard outputs: results in global sorted
// order, pages reconciled against the previous integration (a shard
// whose fused rows are unchanged keeps its predecessor's records — the
// delta the publisher shares between versions), and the wrangled table
// assembled from page records without copying.
func (w *Wrangler) shardMergeStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	w.results = mergeResults(sr.pages, sr.keyShard)
	w.supporters = nil
	w.trust = sr.opts.Trust

	// Delta reconciliation: adopt the previous page's records wherever
	// the shard fused to identical rows. Results stay fresh (confidences
	// and trust may drift even when every winning value held), so only
	// the record storage — what publication would otherwise deep-copy —
	// is shared. The same pass computes the version's ChangeSet: which
	// shards rebuilt, and which records within them actually moved —
	// the summary watchers receive so their per-version payload is
	// O(delta), not O(table).
	shared := make([]bool, len(sr.pages))
	for i := range sr.pages {
		if i < len(w.pages) && sr.pages[i].rowsEqual(w.pages[i]) {
			sr.pages[i].entities = w.pages[i].entities
			sr.pages[i].rows = w.pages[i].rows
			shared[i] = true
		}
	}
	w.lastChange = changeSet(w.pages, sr.pages, shared)
	w.pages = sr.pages

	w.wrangled, w.rowEntities = mergePages(sr.pages, w.Config.Target)
	w.LastStats.RowsWrangled = w.wrangled.Len()
	w.Prov.Put(provenance.Ref{Kind: provenance.KindFusion, ID: "wrangled"},
		"fusion.Fuse", []provenance.Ref{{Kind: provenance.KindCluster, ID: "union"}}, sr.opts.Policy.String())
	if w.StreamingRefresh {
		w.recordTailMemo(sr)
	}
	return nil
}

// mergeResults returns every page's results in global key order. Each
// page holds one result per group of its shard, in key order, so walking
// the global sorted keys (keyShard gives each key's shard) and taking the
// owner page's next result yields that order. Pages are immutable, so
// when one page holds every result (always so for a single shard) its
// slice is the merge.
func mergeResults(pages []*shardPage, keyShard []int) []fusion.Result {
	for _, p := range pages {
		if len(p.results) == len(keyShard) {
			return p.results
		}
	}
	results := make([]fusion.Result, len(keyShard))
	next := make([]int, len(pages))
	for j, s := range keyShard {
		results[j] = pages[s].results[next[s]]
		next[s]++
	}
	return results
}

// changeSet summarises what the freshly merged pages changed against the
// previous integration — the per-version delta the change feed pushes to
// watchers. Shards whose pages were adopted by reference contribute
// nothing; rebuilt shards are diffed record by record (pages keep their
// entities sorted, so each diff is one linear merge walk over the two
// pages — O(changed pages), never O(table)). Without a previous
// integration to diff against the whole version is a full change.
func changeSet(prev, cur []*shardPage, shared []bool) serve.ChangeSet {
	if len(prev) == 0 || len(prev) != len(cur) {
		return serve.ChangeSet{Full: true}
	}
	cs := serve.ChangeSet{}
	changed := map[string]bool{}
	removed := map[string]bool{}
	for i := range cur {
		if shared[i] {
			cs.SharedPages++
			continue
		}
		cs.ChangedPages++
		cs.ChangedShards = append(cs.ChangedShards, i)
		diffPage(prev[i], cur[i], changed, removed)
	}
	for e := range changed {
		// An entity routed to a new owner shard is removed from one page
		// and (re)appears in another: that is a change, not a removal.
		delete(removed, e)
		cs.ChangedRecords = append(cs.ChangedRecords, e)
	}
	for e := range removed {
		cs.RemovedRecords = append(cs.RemovedRecords, e)
	}
	// Publish sorts the slices (ChangeSet normalization); no need here.
	return cs
}

// diffPage walks two entity-sorted pages in one merge pass, recording the
// entities the new page added or rewrote and the ones it dropped.
func diffPage(prev, cur *shardPage, changed, removed map[string]bool) {
	i, j := 0, 0
	var np, nc int
	if prev != nil {
		np = len(prev.entities)
	}
	if cur != nil {
		nc = len(cur.entities)
	}
	for i < np || j < nc {
		switch {
		case i >= np:
			changed[cur.entities[j]] = true
			j++
		case j >= nc:
			removed[prev.entities[i]] = true
			i++
		case prev.entities[i] == cur.entities[j]:
			if !prev.rows[i].Equal(cur.rows[j]) {
				changed[cur.entities[j]] = true
			}
			i++
			j++
		case prev.entities[i] < cur.entities[j]:
			removed[prev.entities[i]] = true
			i++
		default:
			changed[cur.entities[j]] = true
			j++
		}
	}
}

// rowKeys returns the stable feedback key of every union row, in the
// one "source#idxInSource" format (intern.Table.Key) that feedback
// addressing (RowKey, rowKeyIndex) and shard routing share — the
// identifiers shard routing hashes, so a component keeps its shard
// across reactions that only touch other sources. Keys are interned for
// the run's lifetime and the per-union slice is cached (buildUnion
// invalidates it), so the repeated derivations across a tail — feedback
// indexing, constraint mapping, shard planning — share one build.
// Callers treat the returned slice as read-only.
func (w *Wrangler) rowKeys() []string {
	if w.unionKeys != nil && len(w.unionKeys) == len(w.unionSources) {
		return w.unionKeys
	}
	if w.interner == nil {
		w.interner = intern.New()
	}
	counts := map[string]int{}
	out := make([]string, len(w.unionSources))
	for i, src := range w.unionSources {
		out[i] = w.interner.Key(src, counts[src])
		counts[src]++
	}
	w.unionKeys = out
	return out
}
