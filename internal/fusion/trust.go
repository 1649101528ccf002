package fusion

import (
	"context"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/text"
)

// This file is the warm-started, component-partitioned half of trust
// estimation. TruthFinder's fixpoint couples (entity, attribute) groups
// through the per-source trust they share — but only groups that share a
// source, directly or transitively. Sources connected through no chain of
// claim groups exchange no information through sums/counts/opts.Trust, so
// the fixpoint decomposes exactly into trust-coupled connected components
// of the bipartite source↔claim-group incidence: one independent fixpoint
// per component, each with its own delta<1e-6 convergence break, merged in
// sorted component order. Components are pure functions of their member
// groups, so fanning them out across engine workers is byte-identical to
// running them in sequence by construction — the parallel path needs no
// separate equivalence proof beyond the per-component one.
//
// The warm path compounds with this: a TrustMemo caches prepared group
// structure plus each component's converged trust, and EstimateTrustWarm
// short-circuits per component — a reaction that dirties one component's
// claims re-iterates that component only, adopting the others' memoized
// results (which are exact, not approximate: their inputs are unchanged).

// trustGroup is one (entity, attribute) group prepared for the fixpoint:
// everything bucketize would recompute per iteration that does not
// depend on trust.
type trustGroup struct {
	initSources []string // every claim's source, claim order (nulls included)
	sources     []string // non-null claims' sources, claim order
	claimBucket []int    // per non-null claim: bucket it accumulates into
	match       [][]bool // per non-null claim: which buckets it sameValues
	norms       []string // per bucket: normalised representative
}

// prepareTrustGroup mirrors bucketize's bucket formation exactly: claims
// join the first bucket (in creation order) whose representative matches,
// or open a new one. The match matrix is computed against the final
// bucket set — in the fixpoint a claim credits the first *sorted* bucket
// it matches, which can be a bucket created after it.
func prepareTrustGroup(claims []Claim, tol float64) *trustGroup {
	g := &trustGroup{initSources: make([]string, 0, len(claims))}
	// Normalize each claim value once up front: sameValue's string leg
	// normalizes both sides on every comparison, which multiplied out to
	// claims × buckets × 2 normalizations per group. The cached form
	// compares by the identical rules (relative numeric tolerance when
	// both sides are numeric, normalized-string equality otherwise), so
	// bucket formation is unchanged.
	type normVal struct {
		num  bool
		f    float64
		norm string
	}
	nv := make([]normVal, 0, len(claims))
	for _, c := range claims {
		g.initSources = append(g.initSources, c.SourceID)
		if c.Value.IsNull() {
			continue
		}
		g.sources = append(g.sources, c.SourceID)
		v := normVal{num: c.Value.IsNumeric(), norm: text.Normalize(c.Value.String())}
		if v.num {
			v.f = c.Value.FloatVal()
		}
		nv = append(nv, v)
	}
	same := func(a, b normVal) bool {
		if a.num && b.num {
			if a.f == b.f {
				return true
			}
			den := math.Max(math.Abs(a.f), math.Abs(b.f))
			return den > 0 && math.Abs(a.f-b.f)/den <= tol
		}
		return a.norm == b.norm
	}
	var reps []int // bucket representatives, as indices into nv
	g.claimBucket = make([]int, len(nv))
	for ci, v := range nv {
		bi := -1
		for i, ri := range reps {
			if same(nv[ri], v) {
				bi = i
				break
			}
		}
		if bi < 0 {
			bi = len(reps)
			reps = append(reps, ci)
			g.norms = append(g.norms, v.norm)
		}
		g.claimBucket[ci] = bi
	}
	// One flat slab for the match matrix instead of a row per claim.
	slab := make([]bool, len(nv)*len(reps))
	g.match = make([][]bool, len(nv))
	for ci, v := range nv {
		row := slab[ci*len(reps) : (ci+1)*len(reps)]
		for i, ri := range reps {
			row[i] = same(nv[ri], v)
		}
		g.match[ci] = row
	}
	return g
}

// prepareTrustGroups prepares every group for the fixpoint, fanning out
// over engine workers when more than one of each is available. Each
// group's prepared state is a pure function of its own claims, and the
// MapSlice merge is position-deterministic, so the parallel build is
// identical to the sequential loop.
func prepareTrustGroups(groups map[string][]Claim, keys []string, tol float64, workers int) map[string]*trustGroup {
	tg := make(map[string]*trustGroup, len(keys))
	if workers != 1 && len(keys) > 1 {
		prepared, err := engine.MapSlice(context.Background(), workers, keys,
			func(_ context.Context, k string) (*trustGroup, error) {
				return prepareTrustGroup(groups[k], tol), nil
			})
		if err == nil {
			for i, k := range keys {
				tg[k] = prepared[i]
			}
			return tg
		}
		// A recovered panic: fall through so it resurfaces sequentially.
	}
	for _, k := range keys {
		tg[k] = prepareTrustGroup(groups[k], tol)
	}
	return tg
}

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
}

// trustComponent is one trust-coupled connected component prepared for an
// independent fixpoint: its member groups in global sorted key order, its
// distinct sources sorted (the component-local dictionary), each group's
// non-null claim sources dictionary-encoded to local indices, and the
// per-source seed trust and pinned flags snapshotted at build time.
type trustComponent struct {
	key     string        // identity: lexicographically smallest member source
	keys    []string      // member group keys, in global sorted order
	groups  []*trustGroup // parallel to keys
	srcIdx  [][]int32     // parallel to groups: per non-null claim, local source index
	sources []string      // distinct member sources, sorted
	seed    []float64     // per local source: trust at fixpoint start
	pinned  []bool        // per local source: trust is externally fixed
}

// buildTrustComponents unions every group's non-null claim sources and
// materialises one trustComponent per union-find root. Group keys are
// visited in their global sorted order, so each component's keys slice is
// a subsequence of that order and the within-component float accumulation
// sequence matches the old single-loop fixpoint exactly. Groups with only
// null claims join no component: they contributed total==0 and were
// skipped by the old loop too. Components are returned sorted by key.
// Must run after default-trust seeding so seed snapshots are complete.
func buildTrustComponents(keys []string, groups map[string]*trustGroup, opts *Options) []*trustComponent {
	srcID := make(map[string]int)
	var srcs []string
	var parent []int
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, k := range keys {
		first := -1
		for _, s := range groups[k].sources {
			i, ok := srcID[s]
			if !ok {
				i = len(parent)
				srcID[s] = i
				srcs = append(srcs, s)
				parent = append(parent, i)
			}
			if first < 0 {
				first = find(i)
			} else if r := find(i); r != first {
				parent[r] = first
			}
		}
	}
	comps := make(map[int]*trustComponent)
	var order []*trustComponent
	for _, k := range keys {
		g := groups[k]
		if len(g.sources) == 0 {
			continue
		}
		root := find(srcID[g.sources[0]])
		c := comps[root]
		if c == nil {
			c = &trustComponent{}
			comps[root] = c
			order = append(order, c)
		}
		c.keys = append(c.keys, k)
		c.groups = append(c.groups, g)
	}
	for i, s := range srcs {
		c := comps[find(i)]
		c.sources = append(c.sources, s)
	}
	for _, c := range order {
		sort.Strings(c.sources)
		c.key = c.sources[0]
		local := make(map[string]int32, len(c.sources))
		for i, s := range c.sources {
			local[s] = int32(i)
		}
		c.srcIdx = make([][]int32, len(c.groups))
		for gi, g := range c.groups {
			idx := make([]int32, len(g.sources))
			for ci, s := range g.sources {
				idx[ci] = local[s]
			}
			c.srcIdx[gi] = idx
		}
		c.seed = make([]float64, len(c.sources))
		c.pinned = make([]bool, len(c.sources))
		for i, s := range c.sources {
			c.seed[i] = opts.Trust[s]
			c.pinned[i] = opts.Pinned[s]
		}
	}
	slices.SortFunc(order, func(a, b *trustComponent) int {
		return strings.Compare(a.key, b.key)
	})
	return order
}

// componentResult is one component's converged trust, parallel to its
// sorted sources, plus the iteration count it took.
type componentResult struct {
	trust []float64
	iters int
}

// runComponentFixpoint iterates one component to convergence. Within the
// component the float sequence is identical to the old global loop:
// groups in sorted key order, claims in input order, and the damped
// update over sources in sorted order — which is exactly local dictionary
// index order, so the per-iteration path is entirely slice-indexed with
// no map lookups and no string comparisons. The delta<1e-6 break is
// per-component: a converged component stops iterating even while a
// larger one elsewhere keeps going, which the old global-delta loop could
// not do. Pure function of its inputs — safe to run components on any
// worker in any order.
func runComponentFixpoint(c *trustComponent, defaultTrust float64, maxIters int) componentResult {
	cur := slices.Clone(c.seed)
	maxBuckets := 0
	for _, g := range c.groups {
		if n := len(g.norms); n > maxBuckets {
			maxBuckets = n
		}
	}
	wbuf := make([]float64, maxBuckets)
	obuf := make([]int, maxBuckets)
	sums := make([]float64, len(c.sources))
	counts := make([]int, len(c.sources))
	res := componentResult{trust: cur}
	for iter := 0; iter < maxIters; iter++ {
		res.iters++
		clear(sums)
		clear(counts)
		for gi, g := range c.groups {
			w := wbuf[:len(g.norms)]
			for i := range w {
				w[i] = 0
			}
			idx := c.srcIdx[gi]
			for ci, si := range idx {
				// TrustOf's rule over the dictionary: a positive current
				// value wins, anything else falls back to the default.
				if t := cur[si]; t > 0 {
					w[g.claimBucket[ci]] += t
				} else {
					w[g.claimBucket[ci]] += defaultTrust
				}
			}
			// Same comparator as bucketize's final sort, applied to bucket
			// indices: identical comparison outcomes give the identical
			// permutation, so the weight-sorted traversal below credits the
			// same bucket per claim.
			order := obuf[:len(w)]
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(i, j int) bool {
				if w[order[i]] != w[order[j]] {
					return w[order[i]] > w[order[j]]
				}
				return g.norms[order[i]] < g.norms[order[j]]
			})
			total := 0.0
			for _, bi := range order {
				total += w[bi]
			}
			if total == 0 {
				continue
			}
			for ci, si := range idx {
				for _, bi := range order {
					if g.match[ci][bi] {
						sums[si] += w[bi] / total
						counts[si]++
						break
					}
				}
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
// included) a trust entry before the fixpoint starts, exactly as the old
// global loop did.
func seedTrustDefaults(keys []string, groups map[string]*trustGroup, opts *Options) {
	for _, k := range keys {
		for _, src := range groups[k].initSources {
			if _, ok := opts.Trust[src]; !ok {
				opts.Trust[src] = opts.DefaultTrust
			}
		}
	}
}

// runTrustFixpoint is estimateTrust over prepared groups, partitioned by
// trust-coupled component: defaults are seeded, components built, each
// component iterated to its own convergence (on workers goroutines when
// workers > 1 — byte-identical by construction), and the per-component
// trust written back in sorted component order.
func runTrustFixpoint(keys []string, groups map[string]*trustGroup, opts *Options, workers int) TrustStats {
	seedTrustDefaults(keys, groups, opts)
	comps := buildTrustComponents(keys, groups, opts)
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
// set, option knobs, the grouped claims), the prepared per-group state,
// the per-component converged trust, and the resulting trust map.
type TrustMemo struct {
	policy       Policy
	seeds        map[string]float64
	pinned       map[string]bool
	defaultTrust float64
	iterations   int
	tolerance    float64
	keys         []string
	claims       map[string][]Claim
	groups       map[string]*trustGroup
	components   map[string]*memoComponent
	result       map[string]float64
}

// EstimateTrustWarm is EstimateTrust with a cross-reaction memo. It
// returns options ready for FuseResolved, the memo for the next call,
// and whether the fixpoint was skipped outright (no trust-coupled group
// saw a dirty claim and the seeds were unchanged, so the memoized trust
// is byte-identical to what iterating would produce). prev may be nil —
// the estimation then runs from scratch but still returns a memo.
func EstimateTrustWarm(claims []Claim, opts Options, prev *TrustMemo) (Options, *TrustMemo, bool) {
	out, memo, skipped, _ := EstimateTrustWarmParallel(claims, opts, prev, 1)
	return out, memo, skipped
}

// EstimateTrustWarmParallel is EstimateTrustWarm with the component
// fixpoints fanned out over workers goroutines, plus the component-level
// short-circuit: a component whose member groups, sources, seeds and
// claims all match the memo adopts its memoized trust without iterating;
// only dirty components recompute. The returned TrustStats reports how
// many components the claim set has and how many actually re-iterated.
// Byte-identical to the sequential cold path at any worker count.
func EstimateTrustWarmParallel(claims []Claim, opts Options, prev *TrustMemo, workers int) (Options, *TrustMemo, bool, TrustStats) {
	return GroupClaims(claims).EstimateTrustWarm(opts, prev, workers)
}

// EstimateTrustWarm is EstimateTrustWarmParallel over an existing
// grouping. The memo keeps g's groups as its record of this round's
// claims, so g must not be mutated afterwards.
func (g Groups) EstimateTrustWarm(opts Options, prev *TrustMemo, workers int) (Options, *TrustMemo, bool, TrustStats) {
	opts = opts.normalized()
	if opts.Policy != TruthFinder {
		// No fixpoint exists for this policy; EstimateTrust is a no-op
		// beyond normalization, so there is nothing to warm.
		return opts, &TrustMemo{policy: opts.Policy}, true, TrustStats{}
	}
	groups, keys := g.Claims, g.Keys
	seeds := maps.Clone(opts.Trust)
	pinned := maps.Clone(opts.Pinned)
	reusable := prev != nil && prev.policy == TruthFinder &&
		prev.defaultTrust == opts.DefaultTrust &&
		prev.iterations == opts.Iterations &&
		prev.tolerance == opts.NumericTolerance &&
		maps.Equal(prev.pinned, pinned)
	if reusable && maps.Equal(prev.seeds, seeds) && slices.Equal(prev.keys, keys) {
		unchanged := true
		for _, k := range keys {
			if !trustClaimsEqual(prev.claims[k], groups[k]) {
				unchanged = false
				break
			}
		}
		if unchanged {
			opts.Trust = maps.Clone(prev.result)
			return opts, prev, true, TrustStats{Components: len(prev.components)}
		}
	}
	tg := make(map[string]*trustGroup, len(keys))
	fresh := keys
	if reusable {
		fresh = fresh[:0:0]
		for _, k := range keys {
			if pg, ok := prev.groups[k]; ok && trustClaimsEqual(prev.claims[k], groups[k]) {
				tg[k] = pg
				continue
			}
			fresh = append(fresh, k)
		}
	}
	for k, g := range prepareTrustGroups(groups, fresh, opts.NumericTolerance, workers) {
		tg[k] = g
	}
	seedTrustDefaults(keys, tg, &opts)
	comps := buildTrustComponents(keys, tg, &opts)
	memoComps := make(map[string]*memoComponent, len(comps))
	var dirty []*trustComponent
	for _, c := range comps {
		if mc := memoizedComponent(prev, c, groups, reusable); mc != nil {
			for i, src := range c.sources {
				opts.Trust[src] = mc.result[i]
			}
			memoComps[c.key] = mc
			continue
		}
		dirty = append(dirty, c)
	}
	results := runComponents(dirty, &opts, workers)
	st := TrustStats{Components: len(comps), Recomputed: len(dirty)}
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
		keys:         keys,
		claims:       groups,
		groups:       tg,
		components:   memoComps,
		result:       maps.Clone(opts.Trust),
	}
	return opts, memo, false, st
}

// memoizedComponent decides whether a freshly built component may adopt
// its previous converged trust. The proof obligation: the fixpoint is a
// deterministic function of (member groups' prepared state, seed trust,
// pinned flags, option knobs). The knobs and pinned set were checked
// globally (reusable); here the component must have the identical member
// key list and source dictionary, every member source the identical
// starting trust (c.seed snapshots this round's; the previous round
// started from prev.seeds or the default), and every member group
// value-identical claims. All equal ⇒ re-iterating would replay the
// identical float sequence, so adopting the stored result is exact.
func memoizedComponent(prev *TrustMemo, c *trustComponent, groups map[string][]Claim, reusable bool) *memoComponent {
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
	for _, k := range c.keys {
		if !trustClaimsEqual(prev.claims[k], groups[k]) {
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
