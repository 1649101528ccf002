// Package fusion resolves conflicting values from multiple sources into a
// single wrangled record per entity. It implements the fusion spectrum the
// paper positions against KBC (§3.1): frequency-based voting (the
// "instance-based redundancy" assumption KBC leans on), source-trust
// weighted voting with iterative trust estimation (truth discovery in the
// style of Yin et al. [36]), and freshness-aware fusion for "highly
// transient information (e.g., pricing)" where redundancy actively
// misleads — stale values are frequent but wrong.
package fusion

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
)

// Claim is one source's assertion of an attribute value for an entity.
type Claim struct {
	Entity    string // entity/cluster id
	Attribute string
	Value     dataset.Value
	SourceID  string
	AsOf      time.Time // when the source observed the value (freshness)
}

// Policy selects the fusion strategy.
type Policy int

// Fusion policies.
const (
	// MajorityVote picks the most frequent value (KBC-style redundancy).
	MajorityVote Policy = iota
	// WeightedVote weights each vote by the source's trust score.
	WeightedVote
	// TruthFinder iterates between value confidence and source trust.
	TruthFinder
	// FreshnessWeighted decays votes by age before weighting by trust —
	// the right policy for transient attributes such as prices.
	FreshnessWeighted
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MajorityVote:
		return "majority"
	case WeightedVote:
		return "weighted"
	case TruthFinder:
		return "truthfinder"
	case FreshnessWeighted:
		return "freshness"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a fusion run.
type Options struct {
	Policy Policy
	// Trust maps source id -> prior trust in (0,1]. Missing sources get
	// DefaultTrust. Updated in place by TruthFinder iterations.
	Trust map[string]float64
	// Pinned marks sources whose trust is externally established (e.g.
	// derived from user feedback) and must not be overwritten by
	// TruthFinder's iterative estimation.
	Pinned       map[string]bool
	DefaultTrust float64
	// Now anchors freshness decay; claims older than Now by HalfLife lose
	// half their vote.
	Now      time.Time
	HalfLife time.Duration
	// Iterations bounds TruthFinder fixpoint iterations (default 10).
	Iterations int
	// NumericTolerance groups numeric claims whose relative difference is
	// below this into one value bucket (default 0.01).
	NumericTolerance float64
}

// DefaultOptions returns options for the given policy with moderate
// settings.
func DefaultOptions(p Policy) Options {
	return Options{
		Policy:           p,
		Trust:            map[string]float64{},
		DefaultTrust:     0.8,
		HalfLife:         24 * time.Hour,
		Iterations:       10,
		NumericTolerance: 0.01,
	}
}

// Result is the fused value for one (entity, attribute) with its
// confidence and the support that won.
type Result struct {
	Entity     string
	Attribute  string
	Value      dataset.Value
	Confidence float64 // winning bucket's share of total vote mass
	Support    int     // number of claims in the winning bucket
	Conflict   bool    // more than one distinct value bucket was claimed
}

// normalized fills option defaults so every entry point applies the same
// policy regardless of which half of the fuse pipeline it drives.
func (o Options) normalized() Options {
	if o.DefaultTrust <= 0 {
		o.DefaultTrust = 0.8
	}
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.NumericTolerance <= 0 {
		o.NumericTolerance = 0.01
	}
	if o.Trust == nil {
		o.Trust = map[string]float64{}
	}
	return o
}

// Groups is a claim set partitioned by (entity, attribute): Keys holds
// the distinct group keys sorted, Claims each group's claims in input
// order. Group order and in-group claim order are both part of fusion's
// determinism contract — bucket representatives and float accumulation
// follow them — so one grouping serves trust estimation and per-group
// fusion alike, and fusing any subset of Keys yields exactly the results
// those groups get inside a whole-set fuse. A TruthFinder estimation
// leaves the groups' prepared buckets on the grouping, and Fuse votes
// over them instead of bucketing the claims again.
type Groups struct {
	Keys   []string
	Claims map[string][]Claim
	prep   *prepared
}

// GroupClaims partitions claims by (entity, attribute).
func GroupClaims(claims []Claim) Groups {
	// Key each claim once, sort claim indices by (key, input position),
	// and carve the groups out of one slab: appending claims to
	// map-valued slices re-copied every growing group and was the
	// largest allocator in the refresh tail. The index sort is stable by
	// construction (ties break on position), so each group holds its
	// claims in input order, and the distinct keys fall out sorted —
	// exactly what the append-and-sort version produced.
	ckeys := make([]string, len(claims))
	for i, c := range claims {
		ckeys[i] = c.Entity + "\x1f" + c.Attribute
	}
	idx := make([]int, len(claims))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := strings.Compare(ckeys[a], ckeys[b]); c != 0 {
			return c
		}
		return a - b
	})
	slab := make([]Claim, len(claims))
	g := Groups{Claims: make(map[string][]Claim, len(claims)/4+1)}
	start := 0
	for i, id := range idx {
		slab[i] = claims[id]
		if i+1 == len(idx) || ckeys[idx[i+1]] != ckeys[id] {
			k := ckeys[id]
			g.Claims[k] = slab[start : i+1 : i+1]
			g.Keys = append(g.Keys, k)
			start = i + 1
		}
	}
	return g
}

// Fuse resolves all claims into one result per (entity, attribute).
// Results are sorted by entity then attribute for determinism. A
// TruthFinder fuse writes the estimated trust into opts.Trust.
func Fuse(claims []Claim, opts Options) []Result {
	g := GroupClaims(claims)
	opts, _ = g.EstimateTrust(opts, 1)
	return g.Fuse(g.Keys, opts)
}

// EstimateTrustParallel runs the global half of fusion — the TruthFinder
// trust fixpoint over the full claim set — and returns options with the
// estimated per-source trust filled in (for other policies it only fills
// defaults). The returned options are ready for FuseResolved over any
// partition of the same claims: trust estimation is the only stage of
// fusion that couples (entity, attribute) groups to each other, so once
// it has run, disjoint claim subsets fuse independently. The
// per-component fixpoints fan out over workers goroutines; the component
// partition makes the fan-out exact rather than approximate — see
// runTrustFixpoint — so the result is byte-identical at any worker
// count. The returned TrustStats reports the component shape of the
// estimation.
func EstimateTrustParallel(claims []Claim, opts Options, workers int) (Options, TrustStats) {
	g := GroupClaims(claims)
	return g.EstimateTrust(opts, workers)
}

// EstimateTrust is EstimateTrustParallel over an existing grouping. A
// TruthFinder estimation prepares every group and keeps the prepared
// form on g for Fuse.
func (g *Groups) EstimateTrust(opts Options, workers int) (Options, TrustStats) {
	opts = opts.normalized()
	if opts.Policy != TruthFinder {
		return opts, TrustStats{}
	}
	g.prep, _ = prepareGroups(g, nil, nil, opts.NumericTolerance, workers)
	st := runTrustFixpoint(g.Keys, g.prep, &opts, workers)
	st.GroupsPrepared = len(g.Keys)
	return opts, st
}

// FuseResolved fuses claims taking source trust as given: no fixpoint
// runs, every (entity, attribute) group is fused independently under
// opts.Trust. Fusing a partition of a claim set shard by shard and
// merging (MergeResults) yields byte-identical results to one Fuse call
// over the whole set with the same trust — the property the sharded
// integration tail is built on. FuseResolved never mutates opts.Trust,
// so concurrent calls may share one options value.
func FuseResolved(claims []Claim, opts Options) []Result {
	g := GroupClaims(claims)
	return g.Fuse(g.Keys, opts)
}

// Fuse is FuseResolved over the groups named by keys — a sorted subset
// of g.Keys — returning one result per key, in keys order. Groups the
// trust estimation prepared under the same tolerance are fused from
// their prepared buckets; any other group is bucketed into local
// scratch. Fusing disjoint key subsets concurrently under one options
// value is safe.
func (g *Groups) Fuse(keys []string, opts Options) []Result {
	opts = opts.normalized()
	out := make([]Result, len(keys))
	var f fuser
	p := g.prep
	if p != nil && p.tol != opts.NumericTolerance {
		p = nil
	}
	if p != nil && usesTrust(opts.Policy) {
		// One trust lookup per source instead of one per claim.
		f.trust = make([]float64, len(p.dict.names))
		for id, name := range p.dict.names {
			f.trust[id] = trustOf(name, opts)
		}
	}
	j := 0 // keys is a sorted subset of g.Keys: p.groups[j] is k's
	for i, k := range keys {
		claims := g.Claims[k]
		if p == nil {
			out[i] = f.fuse(claims, f.local(claims, opts.NumericTolerance), nil, opts)
			continue
		}
		for g.Keys[j] != k {
			j++
		}
		pg := p.groups[j]
		out[i] = f.fuse(claims, pg.fuseBuckets(), pg.src, opts)
	}
	return out
}

// fuser is one Fuse call's scratch, reused across its groups.
type fuser struct {
	// trust holds every dictionary source's effective trust when the
	// groups are prepared and the policy reads trust; nil otherwise.
	trust []float64
	w, s  []float64
	order []int
	sc    prepScratch
}

// local buckets a group with no prepared form into the fuser's scratch.
func (f *fuser) local(claims []Claim, tol float64) *buckets {
	scaled := reconcileUnits(claims)
	vals, at := values(claims, scaled, f.sc.vals[:0], f.sc.at[:0])
	f.sc.reps = formBuckets(&f.sc.bk, vals, at, scaled, tol, f.sc.reps[:0])
	f.sc.vals, f.sc.at = vals, at
	return &f.sc.bk
}

// fuse votes one group's claims into its buckets and picks the winner:
// the heaviest bucket, ties broken by normalised text. Each non-null
// claim adds its vote weight to its bucket in claim order; the total is
// summed from the heaviest bucket down. src holds the non-null claims'
// dictionary source ids (nil for a locally bucketed group).
func (f *fuser) fuse(claims []Claim, bk *buckets, src []int32, opts Options) Result {
	res := Result{Entity: claims[0].Entity, Attribute: claims[0].Attribute}
	n := len(bk.norms)
	if n == 0 {
		res.Value = dataset.Null()
		return res
	}
	if cap(f.w) < n {
		f.w, f.s = make([]float64, n), make([]float64, n)
	}
	w := f.w[:n]
	clear(w)
	trusted := usesTrust(opts.Policy)
	ci := 0
	for _, c := range claims {
		if c.Value.IsNull() {
			continue
		}
		var t float64
		if trusted && f.trust != nil {
			t = f.trust[src[ci]]
		} else if trusted {
			t = trustOf(c.SourceID, opts)
		}
		w[bk.of[ci]] += voteWeight(c, t, opts)
		ci++
	}
	best := f.winner(w, bk.norms)
	total := sumDesc(w, f.s)
	res.Value = bk.value(claims, best)
	res.Support = int(bk.count[best])
	res.Conflict = n > 1
	if total > 0 {
		res.Confidence = w[best] / total
	}
	return res
}

// winner returns the bucket fusion picks: the first in (weight desc,
// normalised text asc) order. Fusion has always taken the head of that
// order as sort.Slice leaves it. Up to 12 elements sort.Slice is an
// insertion sort, hence stable, so among buckets equal in weight and
// text the first created wins — what the scan keeps. Beyond 12 it is
// not stable, so a full tie at the head is settled by the same sort.
func (f *fuser) winner(w []float64, norms []string) int {
	best, tied := 0, false
	for i := 1; i < len(w); i++ {
		switch {
		case w[i] > w[best] || w[i] == w[best] && norms[i] < norms[best]:
			best, tied = i, false
		case w[i] == w[best] && norms[i] == norms[best]:
			tied = true
		}
	}
	if !tied || len(w) <= 12 {
		return best
	}
	f.order = f.order[:0]
	for i := range w {
		f.order = append(f.order, i)
	}
	return sortedHead(f.order, w, norms)
}

// sortedHead sorts order (bucket indices) exactly as fusion's bucket sort
// would and returns its head. It is its own function so the sort's
// heap-allocated closure is paid only on this rare path.
func sortedHead(order []int, w []float64, norms []string) int {
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if w[a] != w[b] {
			return w[a] > w[b]
		}
		return norms[a] < norms[b]
	})
	return order[0]
}

// MergeResults merges per-shard result slices (each sorted, with disjoint
// (entity, attribute) sets) into the single sorted order Fuse produces.
// The merge is stable under any permutation of parts — shard or provider
// order cannot leak into the output.
func MergeResults(parts ...[]Result) []Result {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Result, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	// Sorting by the same "\x1f"-joined key Fuse sorts group keys by keeps
	// the merged order byte-identical to an unsharded fuse (a plain
	// entity-then-attribute tuple compare is not equivalent in general).
	// Keys are built once per result, not per comparison.
	keys := make([]string, len(out))
	for i, r := range out {
		keys[i] = r.Entity + "\x1f" + r.Attribute
	}
	sort.Sort(&keyedResults{keys: keys, results: out})
	return out
}

// keyedResults sorts results and their precomputed keys together.
type keyedResults struct {
	keys    []string
	results []Result
}

func (k *keyedResults) Len() int           { return len(k.keys) }
func (k *keyedResults) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedResults) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.results[i], k.results[j] = k.results[j], k.results[i]
}

// usesTrust reports whether a policy's vote weight reads source trust.
func usesTrust(p Policy) bool {
	return p == WeightedVote || p == TruthFinder || p == FreshnessWeighted
}

// voteWeight is one claim's vote given its source's trust t (unused by
// policies usesTrust rejects).
func voteWeight(c Claim, t float64, opts Options) float64 {
	switch opts.Policy {
	case WeightedVote, TruthFinder:
		return t
	case FreshnessWeighted:
		w := t
		if !opts.Now.IsZero() && !c.AsOf.IsZero() && opts.HalfLife > 0 {
			age := opts.Now.Sub(c.AsOf)
			if age > 0 {
				w *= math.Pow(0.5, float64(age)/float64(opts.HalfLife))
			}
		}
		return w
	default:
		return 1
	}
}

func trustOf(sourceID string, opts Options) float64 {
	return TrustOf(opts.Trust, opts.DefaultTrust, sourceID)
}

// TrustOf is the one trust lookup rule every fusion stage applies: a
// positive entry wins, anything else falls back to the default.
// Exported because the streaming planner's page-reuse proof must apply
// the exact same rule when comparing effective trust across rounds.
func TrustOf(trust map[string]float64, defaultTrust float64, sourceID string) float64 {
	if t, ok := trust[sourceID]; ok && t > 0 {
		return t
	}
	return defaultTrust
}

// Accuracy scores fused results against a truth lookup: the fraction of
// results whose value agrees with truth(entity, attribute). Entities or
// attributes with no truth entry are skipped; ok reports whether anything
// was scored.
func Accuracy(results []Result, truth func(entity, attribute string) (dataset.Value, bool)) (float64, bool) {
	agree, total := 0, 0
	for _, r := range results {
		want, has := truth(r.Entity, r.Attribute)
		if !has {
			continue
		}
		total++
		if sameValue(r.Value, want, 0.01) {
			agree++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(agree) / float64(total), true
}
