package fusion

import (
	"context"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/engine"
)

// This file is the TruthFinder trust fixpoint. Value confidence is the
// trust-weighted vote share; source trust is the mean confidence of the
// values the source claims. The fixpoint couples (entity, attribute)
// groups through the per-source trust they share — but only groups that
// share a source, directly or transitively. Sources connected through no
// chain of claim groups exchange no information through sums/counts/
// opts.Trust, so the fixpoint decomposes exactly into trust-coupled
// connected components of the bipartite source↔claim-group incidence:
// one independent fixpoint per component, each with its own delta<1e-6
// convergence break, merged in sorted component order. Components are
// pure functions of their member groups, so fanning them out across
// engine workers is byte-identical to running them in sequence by
// construction.
//
// The fixpoint runs over the groups' prepared buckets (prepare.go) and
// does no per-iteration sorting, allocation or normalisation: the bucket
// a claim credits — the first it matches in (weight desc, text asc)
// order — is simply the heaviest bucket it matches, and only groups with
// three or more buckets insertion-sort their weights into a reused
// buffer to total them in that order. Sources are dictionary-encoded, so
// seeding defaults and building components are passes over ints. On a
// traced perfbench refresh-stream run (seed 5, 2 vCPU, GOMAXPROCS 2)
// this, with Groups.Fuse voting over the same prepared buckets, took
// stage.trust_ms from 39.8 to 25.3 and stage.fuse_ms from 21.5 to 6.2
// per reaction, and allocations from 265k to 113k per op; trust and
// results stay bit-identical to the sort-based kernel kept as the
// reference in kernel_test.go.
//
// The warm path compounds with this: a TrustMemo keeps the grouping with
// its prepared groups plus each component's converged trust, and
// Groups.EstimateTrustWarm short-circuits per component — a reaction that
// dirties one component's claims re-prepares only the changed groups and
// re-iterates that component only, adopting the others' memoized results
// (which are exact, not approximate: their inputs are unchanged).

// TrustStats reports the component shape of one trust estimation.
type TrustStats struct {
	// Components is the number of trust-coupled connected components in
	// the claim set (sources linked by shared claim groups, directly or
	// transitively).
	Components int
	// Recomputed is how many components actually iterated this round;
	// the remainder adopted their memoized result unchanged. Cold
	// estimations recompute every component.
	Recomputed int
	// Iterations holds each recomputed component's fixpoint iteration
	// count until its delta<1e-6 break (or the Iterations bound), in
	// sorted component order.
	Iterations []int
	// GroupsPrepared is how many (entity, attribute) groups had their
	// buckets built this round; the rest were carried from the memo.
	// Cold estimations prepare every group.
	GroupsPrepared int
}

// trustComponent is one trust-coupled connected component prepared for an
// independent fixpoint: its member groups in global sorted key order, its
// distinct sources sorted (the component-local dictionary), the member
// groups' non-null claim sources encoded to local indices, and the
// per-source seed trust and pinned flags snapshotted at build time.
type trustComponent struct {
	key     string   // identity: lexicographically smallest member source
	members []int32  // member groups' positions in Groups.Keys, ascending
	keys    []string // member group keys, parallel to members
	groups  []*group // parallel to members
	srcIdx  []int32  // every member's non-null claims' local source index, group after group
	sources []string // distinct member sources, sorted
	seed    []float64
	pinned  []bool
}

// buildTrustComponents unions every group's non-null claim sources and
// materialises one trustComponent per union-find root. Groups are
// visited in their global sorted order, so each component's members are
// a subsequence of that order and the within-component float
// accumulation sequence matches a single global loop exactly. Groups with
// only null claims join no component: they contribute total==0 and are
// skipped. Components are returned sorted by key. Must run after
// default-trust seeding so seed snapshots are complete.
func buildTrustComponents(keys []string, p *prepared, opts *Options) []*trustComponent {
	names := p.dict.names
	parent := make([]int32, len(names)) // -1: in no non-null claim
	for i := range parent {
		parent[i] = -1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, g := range p.groups {
		first := int32(-1)
		for _, s := range g.src {
			if parent[s] < 0 {
				parent[s] = s
			}
			if r := find(s); first < 0 {
				first = r
			} else if r != first {
				parent[r] = first
			}
		}
	}
	// Components are numbered from 1 by their first member group.
	compOf := make([]int32, len(names)) // root → component number
	var comps []*trustComponent
	for gi, g := range p.groups {
		if len(g.src) == 0 {
			continue
		}
		r := find(g.src[0])
		if compOf[r] == 0 {
			comps = append(comps, &trustComponent{})
			compOf[r] = int32(len(comps))
		}
		c := comps[compOf[r]-1]
		c.members = append(c.members, int32(gi))
		c.keys = append(c.keys, keys[gi])
		c.groups = append(c.groups, g)
	}
	ids := make([][]int32, len(comps)) // per component: its source ids
	for s := range parent {
		if parent[s] >= 0 {
			ci := compOf[find(int32(s))] - 1
			ids[ci] = append(ids[ci], int32(s))
		}
	}
	local := make([]int32, len(names)) // source → index in its component's sorted sources
	for ci, c := range comps {
		slices.SortFunc(ids[ci], func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		c.sources = make([]string, len(ids[ci]))
		c.seed = make([]float64, len(ids[ci]))
		c.pinned = make([]bool, len(ids[ci]))
		for i, s := range ids[ci] {
			local[s] = int32(i)
			c.sources[i] = names[s]
			c.seed[i] = opts.Trust[names[s]]
			c.pinned[i] = opts.Pinned[names[s]]
		}
		c.key = c.sources[0]
		for _, g := range c.groups {
			for _, s := range g.src {
				c.srcIdx = append(c.srcIdx, local[s])
			}
		}
	}
	slices.SortFunc(comps, func(a, b *trustComponent) int {
		return strings.Compare(a.key, b.key)
	})
	return comps
}

// componentResult is one component's converged trust, parallel to its
// sorted sources, plus the iteration count it took.
type componentResult struct {
	trust []float64
	iters int
}

// runComponentFixpoint iterates one component to convergence: groups in
// sorted key order, claims in input order, and the damped update over
// sources in sorted order — exactly local dictionary index order, so the
// per-iteration path is entirely slice-indexed, with no map lookups,
// string comparisons, sorting or allocation. The delta<1e-6 break is
// per-component: a converged component stops iterating even while a
// larger one elsewhere keeps going. Pure function of its inputs — safe
// to run components on any worker in any order.
func runComponentFixpoint(c *trustComponent, defaultTrust float64, maxIters int) componentResult {
	cur := slices.Clone(c.seed)
	maxBuckets := 0
	for _, g := range c.groups {
		maxBuckets = max(maxBuckets, len(g.norms))
	}
	wbuf := make([]float64, 2*maxBuckets)
	wbuf, sbuf := wbuf[:maxBuckets], wbuf[maxBuckets:]
	sums := make([]float64, len(c.sources))
	counts := make([]int, len(c.sources))
	res := componentResult{trust: cur}
	for iter := 0; iter < maxIters; iter++ {
		res.iters++
		clear(sums)
		clear(counts)
		idx := c.srcIdx
		for _, g := range c.groups {
			loc := idx[:len(g.src)]
			idx = idx[len(g.src):]
			w := wbuf[:len(g.norms)]
			clear(w)
			for ci, si := range loc {
				// TrustOf's rule over the dictionary: a positive current
				// value wins, anything else falls back to the default.
				if t := cur[si]; t > 0 {
					w[g.of[ci]] += t
				} else {
					w[g.of[ci]] += defaultTrust
				}
			}
			total := sumDesc(w, sbuf)
			if total == 0 {
				continue
			}
			for ci, si := range loc {
				// The first matching bucket in (weight desc, text asc)
				// order has the largest weight of the claim's matches.
				best := -1.0
				for _, b := range g.match[g.matchAt[ci]:g.matchAt[ci+1]] {
					best = max(best, w[b])
				}
				if best < 0 {
					continue // matches no bucket, not even its own (NaN)
				}
				sums[si] += best / total
				counts[si]++
			}
		}
		delta := 0.0
		for i := range cur {
			if counts[i] == 0 || c.pinned[i] {
				continue
			}
			next := 0.5*cur[i] + 0.5*(sums[i]/float64(counts[i]))
			delta += math.Abs(next - cur[i])
			cur[i] = next
		}
		if delta < 1e-6 {
			break
		}
	}
	return res
}

// runComponents runs every component's fixpoint, fanning out across
// engine workers when more than one of each is available. MapSlice's
// deterministic merge (out[i] ↔ comps[i]) plus runComponentFixpoint's
// purity make any worker count byte-identical to the sequential loop.
func runComponents(comps []*trustComponent, opts *Options, workers int) []componentResult {
	if workers == 1 || len(comps) <= 1 {
		out := make([]componentResult, len(comps))
		for i, c := range comps {
			out[i] = runComponentFixpoint(c, opts.DefaultTrust, opts.Iterations)
		}
		return out
	}
	out, err := engine.MapSlice(context.Background(), workers, comps,
		func(_ context.Context, c *trustComponent) (componentResult, error) {
			return runComponentFixpoint(c, opts.DefaultTrust, opts.Iterations), nil
		})
	if err != nil {
		// The task fn never errors, so this is a recovered panic — rerun
		// sequentially so it surfaces from the caller's own stack.
		out = make([]componentResult, len(comps))
		for i, c := range comps {
			out[i] = runComponentFixpoint(c, opts.DefaultTrust, opts.Iterations)
		}
	}
	return out
}

// seedTrustDefaults gives every source that appears in any claim (nulls
// included) a trust entry before the fixpoint starts, looking each
// distinct source up once.
func seedTrustDefaults(p *prepared, opts *Options) {
	seen := make([]bool, len(p.dict.names))
	for _, g := range p.groups {
		for _, s := range g.src {
			seen[s] = true
		}
		for _, s := range g.nullSrc {
			seen[s] = true
		}
	}
	for s, ok := range seen {
		if !ok {
			continue
		}
		if _, has := opts.Trust[p.dict.names[s]]; !has {
			opts.Trust[p.dict.names[s]] = opts.DefaultTrust
		}
	}
}

// runTrustFixpoint runs the fixpoint over prepared groups, partitioned by
// trust-coupled component: defaults are seeded, components built, each
// component iterated to its own convergence (on workers goroutines when
// workers > 1 — byte-identical by construction), and the per-component
// trust written back in sorted component order. Groups are visited in
// sorted key order — float accumulation is not associative, so
// iterating the map directly would make trust (and with it confidences
// and tie-broken winners) vary run to run.
func runTrustFixpoint(keys []string, p *prepared, opts *Options, workers int) TrustStats {
	seedTrustDefaults(p, opts)
	comps := buildTrustComponents(keys, p, opts)
	results := runComponents(comps, opts, workers)
	st := TrustStats{Components: len(comps), Recomputed: len(comps)}
	st.Iterations = make([]int, len(comps))
	for ci, c := range comps {
		for i, src := range c.sources {
			opts.Trust[src] = results[ci].trust[i]
		}
		st.Iterations[ci] = results[ci].iters
	}
	return st
}

// memoComponent caches one component's identity (member group keys and
// sorted sources) and its converged trust, so a later estimation can
// adopt the result without iterating when the component's inputs are
// provably unchanged.
type memoComponent struct {
	keys    []string  // member group keys, global sorted order
	sources []string  // member sources, sorted
	result  []float64 // converged trust, parallel to sources
}

// TrustMemo caches one trust estimation: its inputs (seed trust, pinned
// set, option knobs), the grouping it ran over — which holds the
// prepared groups and their source dictionary — the per-component
// converged trust, and the resulting trust map.
type TrustMemo struct {
	policy       Policy
	seeds        map[string]float64
	pinned       map[string]bool
	defaultTrust float64
	iterations   int
	tolerance    float64
	groups       Groups
	components   map[string]*memoComponent
	result       map[string]float64
}

// EstimateTrustWarmParallel groups claims and runs
// Groups.EstimateTrustWarm over them.
func EstimateTrustWarmParallel(claims []Claim, opts Options, prev *TrustMemo, workers int) (Options, *TrustMemo, bool, TrustStats) {
	g := GroupClaims(claims)
	return g.EstimateTrustWarm(opts, prev, workers)
}

// EstimateTrustWarm is Groups.EstimateTrust with a cross-reaction memo.
// It returns options ready for Fuse, the memo for the next call, whether
// the fixpoint was skipped outright (no trust-coupled group saw a dirty
// claim and the seeds were unchanged, so the memoized trust is
// byte-identical to what iterating would produce), and the component
// stats. prev may be nil — the estimation then runs from scratch but
// still returns a memo. Groups whose claims match the memo's keep their
// prepared form; the rest are prepared. A component whose member groups,
// sources, seeds and claims all match the memo adopts its memoized trust
// without iterating; only dirty components fan out over workers.
// Byte-identical to the cold estimation at any worker count. The memo
// keeps g as its record of this round's claims, so g must not be mutated
// afterwards.
func (g *Groups) EstimateTrustWarm(opts Options, prev *TrustMemo, workers int) (Options, *TrustMemo, bool, TrustStats) {
	opts = opts.normalized()
	if opts.Policy != TruthFinder {
		// No fixpoint exists for this policy; the estimation is a no-op
		// beyond normalization, so there is nothing to warm.
		return opts, &TrustMemo{policy: opts.Policy}, true, TrustStats{}
	}
	seeds := maps.Clone(opts.Trust)
	pinned := maps.Clone(opts.Pinned)
	reusable := prev != nil && prev.policy == TruthFinder &&
		prev.defaultTrust == opts.DefaultTrust &&
		prev.iterations == opts.Iterations &&
		prev.tolerance == opts.NumericTolerance &&
		maps.Equal(prev.pinned, pinned)
	var carried []*group
	var dict *sourceDict
	if reusable {
		carried = prev.carry(g)
		dict = prev.groups.prep.dict
		all := len(prev.groups.Keys) == len(g.Keys)
		for _, pg := range carried {
			all = all && pg != nil
		}
		if all && maps.Equal(prev.seeds, seeds) {
			g.prep = prev.groups.prep
			opts.Trust = maps.Clone(prev.result)
			memo := *prev
			memo.groups = *g
			return opts, &memo, true, TrustStats{Components: len(prev.components)}
		}
	}
	p, fresh := prepareGroups(g, carried, dict, opts.NumericTolerance, workers)
	g.prep = p
	seedTrustDefaults(p, &opts)
	comps := buildTrustComponents(g.Keys, p, &opts)
	memoComps := make(map[string]*memoComponent, len(comps))
	var dirty []*trustComponent
	for _, c := range comps {
		if mc := memoizedComponent(prev, c, carried, reusable); mc != nil {
			for i, src := range c.sources {
				opts.Trust[src] = mc.result[i]
			}
			memoComps[c.key] = mc
			continue
		}
		dirty = append(dirty, c)
	}
	results := runComponents(dirty, &opts, workers)
	st := TrustStats{Components: len(comps), Recomputed: len(dirty), GroupsPrepared: fresh}
	st.Iterations = make([]int, len(dirty))
	for di, c := range dirty {
		for i, src := range c.sources {
			opts.Trust[src] = results[di].trust[i]
		}
		memoComps[c.key] = &memoComponent{keys: c.keys, sources: c.sources, result: results[di].trust}
		st.Iterations[di] = results[di].iters
	}
	memo := &TrustMemo{
		policy:       TruthFinder,
		seeds:        seeds,
		pinned:       pinned,
		defaultTrust: opts.DefaultTrust,
		iterations:   opts.Iterations,
		tolerance:    opts.NumericTolerance,
		groups:       *g,
		components:   memoComps,
		result:       maps.Clone(opts.Trust),
	}
	return opts, memo, false, st
}

// carry returns, parallel to g.Keys, the memo's prepared group for every
// key whose claims are unchanged (nil where the group must be prepared).
// Both key lists are sorted, so one merge walk pairs them.
func (m *TrustMemo) carry(g *Groups) []*group {
	out := make([]*group, len(g.Keys))
	pk := m.groups.Keys
	j := 0
	for i, k := range g.Keys {
		for j < len(pk) && pk[j] < k {
			j++
		}
		if j < len(pk) && pk[j] == k && trustClaimsEqual(m.groups.Claims[k], g.Claims[k]) {
			out[i] = m.groups.prep.groups[j]
		}
	}
	return out
}

// memoizedComponent decides whether a freshly built component may adopt
// its previous converged trust. The proof obligation: the fixpoint is a
// deterministic function of (member groups' prepared state, seed trust,
// pinned flags, option knobs). The knobs and pinned set were checked
// globally (reusable); here the component must have the identical member
// key list and source dictionary, every member source the identical
// starting trust (c.seed snapshots this round's; the previous round
// started from prev.seeds or the default), and every member group
// value-identical claims (carried). All equal ⇒ re-iterating would
// replay the identical float sequence, so adopting the stored result is
// exact.
func memoizedComponent(prev *TrustMemo, c *trustComponent, carried []*group, reusable bool) *memoComponent {
	if !reusable {
		return nil
	}
	mc, ok := prev.components[c.key]
	if !ok || !slices.Equal(mc.keys, c.keys) || !slices.Equal(mc.sources, c.sources) {
		return nil
	}
	for i, src := range c.sources {
		prevSeed, ok := prev.seeds[src]
		if !ok {
			prevSeed = prev.defaultTrust
		}
		if c.seed[i] != prevSeed {
			return nil
		}
	}
	for _, m := range c.members {
		if carried[m] == nil {
			return nil
		}
	}
	return mc
}

// trustClaimsEqual compares two claim lists on everything the trust
// fixpoint reads: source and value, in order. AsOf is deliberately
// ignored — freshness never enters trust estimation, so a re-snapshot
// that kept every value does not dirty the group.
func trustClaimsEqual(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SourceID != b[i].SourceID || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// ClaimsEqual reports whether two claim lists are identical in every
// field fusion can read — entity, attribute, source, value and
// observation time. The partial tail uses it to prove a shard's fused
// page can be reused by reference.
func ClaimsEqual(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || a[i].Attribute != b[i].Attribute ||
			a[i].SourceID != b[i].SourceID || !a[i].Value.Equal(b[i].Value) ||
			!a[i].AsOf.Equal(b[i].AsOf) {
			return false
		}
	}
	return true
}
