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
	"repro/internal/text"
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
	Trust        map[string]float64
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
// those groups get inside a whole-set fuse.
type Groups struct {
	Keys   []string
	Claims map[string][]Claim
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
// Results are sorted by entity then attribute for determinism.
func Fuse(claims []Claim, opts Options) []Result {
	out, _, _ := FuseParallel(claims, opts, 1)
	return out
}

// FuseParallel is Fuse with the TruthFinder fixpoint fanned out over
// workers goroutines (per trust-coupled component — byte-identical to
// Fuse at any worker count), returning the resolved options and the
// component stats alongside the results. Claims are grouped once and
// shared between trust estimation and per-group fusion.
func FuseParallel(claims []Claim, opts Options, workers int) ([]Result, Options, TrustStats) {
	g := GroupClaims(claims)
	opts, st := g.EstimateTrust(opts, workers)
	return g.Fuse(g.Keys, opts), opts, st
}

// EstimateTrust runs the global half of fusion — the TruthFinder trust
// fixpoint over the full claim set — and returns options with the
// estimated per-source trust filled in (for other policies it only fills
// defaults). The returned options are ready for FuseResolved over any
// partition of the same claims: trust estimation is the only stage of
// fusion that couples (entity, attribute) groups to each other, so once
// it has run, disjoint claim subsets fuse independently.
func EstimateTrust(claims []Claim, opts Options) Options {
	opts, _ = EstimateTrustParallel(claims, opts, 1)
	return opts
}

// EstimateTrustParallel is EstimateTrust with the per-component fixpoints
// fanned out over workers goroutines. The component partition makes the
// fan-out exact rather than approximate — see runTrustFixpoint — so the
// result is byte-identical to EstimateTrust at any worker count. The
// returned TrustStats reports the component shape of the estimation.
func EstimateTrustParallel(claims []Claim, opts Options, workers int) (Options, TrustStats) {
	return GroupClaims(claims).EstimateTrust(opts, workers)
}

// EstimateTrust is EstimateTrustParallel over an existing grouping.
func (g Groups) EstimateTrust(opts Options, workers int) (Options, TrustStats) {
	opts = opts.normalized()
	var st TrustStats
	if opts.Policy == TruthFinder {
		st = estimateTrust(g.Claims, g.Keys, &opts, workers)
	}
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
// of g.Keys — returning one result per key, in keys order. Fusing
// disjoint key subsets concurrently under one options value is safe.
func (g Groups) Fuse(keys []string, opts Options) []Result {
	opts = opts.normalized()
	out := make([]Result, len(keys))
	for i, k := range keys {
		out[i] = fuseGroup(g.Claims[k], opts)
	}
	return out
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

// bucket groups equivalent claimed values.
type bucket struct {
	rep    dataset.Value
	norm   string
	weight float64
	count  int
}

func fuseGroup(claims []Claim, opts Options) Result {
	res := Result{Entity: claims[0].Entity, Attribute: claims[0].Attribute}
	claims = reconcileUnits(claims)
	buckets := bucketize(claims, opts, func(c Claim) float64 { return voteWeight(c, opts) })
	if len(buckets) == 0 {
		res.Value = dataset.Null()
		return res
	}
	total := 0.0
	for _, b := range buckets {
		total += b.weight
	}
	best := buckets[0]
	res.Value = best.rep
	res.Support = best.count
	res.Conflict = len(buckets) > 1
	if total > 0 {
		res.Confidence = best.weight / total
	}
	return res
}

// reconcileUnits normalises numeric claims that sit ~100× above the
// group's median — sources reporting cents instead of dollars. The unit
// error is syntactic, not a genuine conflict, so it is repaired before
// voting rather than outvoted.
func reconcileUnits(claims []Claim) []Claim {
	var nums []float64
	for _, c := range claims {
		if c.Value.IsNumeric() {
			nums = append(nums, c.Value.FloatVal())
		}
	}
	if len(nums) < 2 {
		return claims
	}
	sort.Float64s(nums)
	median := nums[len(nums)/2]
	if median <= 0 {
		return claims
	}
	out := make([]Claim, len(claims))
	copy(out, claims)
	for i, c := range out {
		if !c.Value.IsNumeric() {
			continue
		}
		ratio := c.Value.FloatVal() / median
		if ratio > 95 && ratio < 105 {
			out[i].Value = dataset.Float(c.Value.FloatVal() / 100)
		}
	}
	return out
}

// bucketize groups claims into equivalent-value buckets, weighting each
// claim by weightFn, and returns buckets sorted by descending weight (ties
// by normalised value for determinism). Null values are ignored.
func bucketize(claims []Claim, opts Options, weightFn func(Claim) float64) []bucket {
	var buckets []bucket
	for _, c := range claims {
		if c.Value.IsNull() {
			continue
		}
		w := weightFn(c)
		placed := false
		for i := range buckets {
			if sameValue(buckets[i].rep, c.Value, opts.NumericTolerance) {
				buckets[i].weight += w
				buckets[i].count++
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, bucket{rep: c.Value, norm: text.Normalize(c.Value.String()), weight: w, count: 1})
		}
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].weight != buckets[j].weight {
			return buckets[i].weight > buckets[j].weight
		}
		return buckets[i].norm < buckets[j].norm
	})
	return buckets
}

func sameValue(a, b dataset.Value, tol float64) bool {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.FloatVal(), b.FloatVal()
		if x == y {
			return true
		}
		den := math.Max(math.Abs(x), math.Abs(y))
		return den > 0 && math.Abs(x-y)/den <= tol
	}
	return text.Normalize(a.String()) == text.Normalize(b.String())
}

func voteWeight(c Claim, opts Options) float64 {
	switch opts.Policy {
	case MajorityVote:
		return 1
	case WeightedVote, TruthFinder:
		return trustOf(c.SourceID, opts)
	case FreshnessWeighted:
		w := trustOf(c.SourceID, opts)
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

// estimateTrust runs the TruthFinder-style fixpoint: value confidence is
// the trust-weighted vote share; source trust is the mean confidence of
// the values the source claims. Trust is written back into opts.Trust.
// Groups are visited in sorted key order — float accumulation is not
// associative, so iterating the map directly would make trust (and with
// it confidences and tie-broken winners) vary run to run.
// Bucket formation is iteration-invariant (membership depends only on
// values, not weights), so each group is prepared once and the fixpoint
// runs over the prepared state, partitioned by trust-coupled component
// with a per-component convergence break — the reference the
// float-exactness property tests in trust_test are pinned against.
// Preparation is per-group pure (each group's buckets depend only on its
// own claims), so with workers it fans out through the engine alongside
// the component fixpoints — profiles put prepare ahead of the iteration
// loop on cold estimations, so parallelising only the fixpoint would
// leave the larger half of the stage sequential.
func estimateTrust(groups map[string][]Claim, keys []string, opts *Options, workers int) TrustStats {
	tg := prepareTrustGroups(groups, keys, opts.NumericTolerance, workers)
	return runTrustFixpoint(keys, tg, opts, workers)
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
