package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/text"
)

// These tests pin the prepared fusion kernel (prepare.go, the sort-free
// fixpoint, Groups.Fuse) to a frozen copy of the kernel it replaced: the
// sort-based component fixpoint and the bucketize-based per-group fuse,
// kept below verbatim in logic. Every trust value and every Result field
// must match bit for bit, cold, warm and on the FuseResolved path, under
// all four policies.

// --- frozen reference --------------------------------------------------

type refTrustGroup struct {
	initSources []string
	sources     []string
	claimBucket []int
	match       [][]bool
	norms       []string
}

func refPrepareTrustGroup(claims []Claim, tol float64) *refTrustGroup {
	g := &refTrustGroup{}
	type normVal struct {
		num  bool
		f    float64
		norm string
	}
	var nv []normVal
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
	var reps []int
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
	g.match = make([][]bool, len(nv))
	for ci, v := range nv {
		g.match[ci] = make([]bool, len(reps))
		for i, ri := range reps {
			g.match[ci][i] = same(nv[ri], v)
		}
	}
	return g
}

type refTrustComponent struct {
	key     string
	groups  []*refTrustGroup
	srcIdx  [][]int32
	sources []string
	seed    []float64
	pinned  []bool
}

func refBuildTrustComponents(keys []string, groups map[string]*refTrustGroup, opts *Options) []*refTrustComponent {
	srcID := map[string]int{}
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
	comps := map[int]*refTrustComponent{}
	var order []*refTrustComponent
	for _, k := range keys {
		g := groups[k]
		if len(g.sources) == 0 {
			continue
		}
		root := find(srcID[g.sources[0]])
		c := comps[root]
		if c == nil {
			c = &refTrustComponent{}
			comps[root] = c
			order = append(order, c)
		}
		c.groups = append(c.groups, g)
	}
	for i, s := range srcs {
		c := comps[find(i)]
		c.sources = append(c.sources, s)
	}
	for _, c := range order {
		sort.Strings(c.sources)
		c.key = c.sources[0]
		local := map[string]int32{}
		for i, s := range c.sources {
			local[s] = int32(i)
		}
		for _, g := range c.groups {
			idx := make([]int32, len(g.sources))
			for ci, s := range g.sources {
				idx[ci] = local[s]
			}
			c.srcIdx = append(c.srcIdx, idx)
		}
		for _, s := range c.sources {
			c.seed = append(c.seed, opts.Trust[s])
			c.pinned = append(c.pinned, opts.Pinned[s])
		}
	}
	slices.SortFunc(order, func(a, b *refTrustComponent) int { return strings.Compare(a.key, b.key) })
	return order
}

// refRunComponentFixpoint is the sort-based fixpoint loop.
func refRunComponentFixpoint(c *refTrustComponent, defaultTrust float64, maxIters int) []float64 {
	cur := slices.Clone(c.seed)
	sums := make([]float64, len(c.sources))
	counts := make([]int, len(c.sources))
	for iter := 0; iter < maxIters; iter++ {
		clear(sums)
		clear(counts)
		for gi, g := range c.groups {
			w := make([]float64, len(g.norms))
			idx := c.srcIdx[gi]
			for ci, si := range idx {
				if t := cur[si]; t > 0 {
					w[g.claimBucket[ci]] += t
				} else {
					w[g.claimBucket[ci]] += defaultTrust
				}
			}
			order := make([]int, len(w))
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
	return cur
}

// refEstimateTrust is the reference trust estimation.
func refEstimateTrust(claims []Claim, opts Options) Options {
	opts = opts.normalized()
	if opts.Policy != TruthFinder {
		return opts
	}
	g := GroupClaims(claims)
	tg := map[string]*refTrustGroup{}
	for _, k := range g.Keys {
		tg[k] = refPrepareTrustGroup(g.Claims[k], opts.NumericTolerance)
	}
	for _, k := range g.Keys {
		for _, src := range tg[k].initSources {
			if _, ok := opts.Trust[src]; !ok {
				opts.Trust[src] = opts.DefaultTrust
			}
		}
	}
	for _, c := range refBuildTrustComponents(g.Keys, tg, &opts) {
		trust := refRunComponentFixpoint(c, opts.DefaultTrust, opts.Iterations)
		for i, src := range c.sources {
			opts.Trust[src] = trust[i]
		}
	}
	return opts
}

type refBucket struct {
	rep    dataset.Value
	norm   string
	weight float64
	count  int
}

func refSameValue(a, b dataset.Value, tol float64) bool {
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

func refReconcileUnits(claims []Claim) []Claim {
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
	out := slices.Clone(claims)
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

func refVoteWeight(c Claim, opts Options) float64 {
	switch opts.Policy {
	case MajorityVote:
		return 1
	case WeightedVote, TruthFinder:
		return TrustOf(opts.Trust, opts.DefaultTrust, c.SourceID)
	case FreshnessWeighted:
		w := TrustOf(opts.Trust, opts.DefaultTrust, c.SourceID)
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

// refBucketize is the per-fuse bucket formation and sort.
func refBucketize(claims []Claim, opts Options) []refBucket {
	var buckets []refBucket
	for _, c := range claims {
		if c.Value.IsNull() {
			continue
		}
		w := refVoteWeight(c, opts)
		placed := false
		for i := range buckets {
			if refSameValue(buckets[i].rep, c.Value, opts.NumericTolerance) {
				buckets[i].weight += w
				buckets[i].count++
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, refBucket{rep: c.Value, norm: text.Normalize(c.Value.String()), weight: w, count: 1})
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

func refFuseGroup(claims []Claim, opts Options) Result {
	res := Result{Entity: claims[0].Entity, Attribute: claims[0].Attribute}
	claims = refReconcileUnits(claims)
	buckets := refBucketize(claims, opts)
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

// refFuse fuses every group under opts as given.
func refFuse(claims []Claim, opts Options) []Result {
	opts = opts.normalized()
	g := GroupClaims(claims)
	out := make([]Result, len(g.Keys))
	for i, k := range g.Keys {
		out[i] = refFuseGroup(g.Claims[k], opts)
	}
	return out
}

// --- comparison --------------------------------------------------------

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffTrust(want, got map[string]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d trust entries, want %d", len(got), len(want))
	}
	for src, w := range want {
		if g, ok := got[src]; !ok || !sameBits(g, w) {
			return fmt.Errorf("trust[%s] = %v (%#x), want %v (%#x)", src, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

func sameValueBits(a, b dataset.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String() && sameBits(a.FloatVal(), b.FloatVal())
}

func diffResults(want, got []Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Entity != w.Entity || g.Attribute != w.Attribute || !sameValueBits(g.Value, w.Value) ||
			!sameBits(g.Confidence, w.Confidence) || g.Support != w.Support || g.Conflict != w.Conflict {
			return fmt.Errorf("result %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// --- claim sets --------------------------------------------------------

var kernelNow = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)

// kernelValue maps a byte onto a value palette built to stress bucket
// formation: a chain of numerics 0.6% apart (under the 1% tolerance a
// claim matches several buckets), ±x pairs sharing one normalised text
// (full ties), cents-for-dollars values that reconcileUnits rescales,
// strings colliding under normalisation, nulls, NaN and ±0.
func kernelValue(b byte) dataset.Value {
	switch k := int(b % 40); {
	case k < 3:
		return dataset.Null()
	case k < 11:
		return dataset.Float(100 * (1 + float64(k-7)*0.006))
	case k < 13:
		return dataset.Float([]float64{1.5, -1.5}[k-11])
	case k < 16:
		return dataset.Float([]float64{150, 10000, 10050}[k-13])
	case k < 20:
		return dataset.String([]string{"Acme", "acme ", "ACME!", "Globex"}[k-16])
	case k == 20:
		return dataset.Int(100)
	case k == 21:
		return dataset.Float(math.NaN())
	case k == 22:
		return dataset.Float(0)
	case k == 23:
		return dataset.Float(math.Copysign(0, -1))
	case k == 24:
		return dataset.String("")
	case k < 33:
		// Eight magnitudes and three negatives sharing their text:
		// groups with more than twelve buckets, ties between x and -x.
		return dataset.Float(7.3 * float64(k-24))
	case k < 36:
		return dataset.Float(-7.3 * float64(k-32))
	default:
		// Four values far apart under one normalised text, "1 1e 07".
		return dataset.Float([]float64{1.1e7, -1.1e7, 1.1e-7, -1.1e-7}[k-36])
	}
}

// kernelCase decodes a claim set, an options factory and a worker count
// from bytes: a 4-byte header (policy, default trust, tolerance,
// workers and group spread), then per source a seeded-trust byte, then 3 bytes per claim
// (group, source and null-ness, value).
func kernelCase(data []byte) ([]Claim, func() Options, int) {
	const nsrc = 7
	if len(data) < 4+nsrc {
		data = append(data, make([]byte, 4+nsrc-len(data))...)
	}
	hdr, seeds, body := data[:4], data[4:4+nsrc], data[4+nsrc:]
	policy := Policy(hdr[0] % 4)
	defTrust := []float64{0.8, 0.5, 0}[hdr[1]%3]
	tol := []float64{0.01, 0.05, 0.002}[hdr[2]%3]
	workers := []int{1, 2, 4}[hdr[3]%3]
	entities := []byte{4, 1, 2}[(hdr[3]/3)%3]
	mk := func() Options {
		o := DefaultOptions(policy)
		o.DefaultTrust = defTrust
		o.NumericTolerance = tol
		o.Now = kernelNow
		o.Pinned = map[string]bool{}
		for s, b := range seeds {
			id := fmt.Sprintf("s%d", s)
			switch b % 8 {
			case 1:
				o.Trust[id] = 0
			case 2:
				o.Trust[id] = -0.5
			case 3, 4:
				// Equal seeds: exact weight ties between buckets.
				o.Trust[id] = 0.6
			case 5:
				o.Trust[id] = 0.25 + float64(b)/1024
				o.Pinned[id] = true
			case 6:
				o.Trust[id] = 0.9
				o.Pinned[id] = true
			}
		}
		return o
	}
	var claims []Claim
	for len(body) >= 3 {
		gb, sb, vb := body[0], body[1], body[2]
		body = body[3:]
		v := kernelValue(vb)
		if sb&0x80 != 0 {
			v = dataset.Null()
		}
		claims = append(claims, Claim{
			Entity:    fmt.Sprintf("e%d", gb%entities),
			Attribute: []string{"price", "name", "brand"}[(gb/entities)%3],
			Value:     v,
			SourceID:  fmt.Sprintf("s%d", int(sb&0x7f)%nsrc),
			AsOf:      kernelNow.Add(-time.Duration(gb) * time.Hour),
		})
	}
	return claims, mk, workers
}

// perturb returns a copy of claims with some values changed and the last
// few dropped: the previous round a warm estimation starts from.
func perturb(claims []Claim, data []byte) []Claim {
	out := slices.Clone(claims)
	for i, b := range data {
		if len(out) == 0 {
			break
		}
		if b%5 == 0 {
			j := (i * 7) % len(out)
			out[j].Value = kernelValue(b / 5)
		}
	}
	if len(out) > 3 {
		out = out[:len(out)-len(out)%3]
	}
	return out
}

// checkKernel compares the prepared kernel with the reference on one
// claim set: cold estimation + Fuse, FuseResolved, a fuse over key
// subsets, and warm estimations from a perturbed previous round,
// including the full short-circuit.
func checkKernel(claims []Claim, mk func() Options, workers int, prevData []byte) error {
	ref := refEstimateTrust(claims, mk())
	want := refFuse(claims, ref)

	g := GroupClaims(claims)
	got, _ := g.EstimateTrust(mk(), workers)
	if err := diffTrust(ref.Trust, got.Trust); err != nil {
		return fmt.Errorf("cold trust: %w", err)
	}
	if err := diffResults(want, g.Fuse(g.Keys, got)); err != nil {
		return fmt.Errorf("cold fuse: %w", err)
	}
	if err := diffResults(want, FuseResolved(claims, ref)); err != nil {
		return fmt.Errorf("FuseResolved: %w", err)
	}
	var odd, even []string
	for i, k := range g.Keys {
		if i%2 == 1 {
			odd = append(odd, k)
		} else {
			even = append(even, k)
		}
	}
	if err := diffResults(want, MergeResults(g.Fuse(odd, got), g.Fuse(even, got))); err != nil {
		return fmt.Errorf("subset fuse: %w", err)
	}

	pg := GroupClaims(perturb(claims, prevData))
	_, memo, _, _ := pg.EstimateTrustWarm(mk(), nil, workers)
	wg := GroupClaims(claims)
	warm, memo, _, _ := wg.EstimateTrustWarm(mk(), memo, workers)
	if err := diffTrust(ref.Trust, warm.Trust); err != nil {
		return fmt.Errorf("warm trust: %w", err)
	}
	if err := diffResults(want, wg.Fuse(wg.Keys, warm)); err != nil {
		return fmt.Errorf("warm fuse: %w", err)
	}
	sg := GroupClaims(claims)
	again, _, _, _ := sg.EstimateTrustWarm(mk(), memo, workers)
	if err := diffTrust(ref.Trust, again.Trust); err != nil {
		return fmt.Errorf("short-circuit trust: %w", err)
	}
	if err := diffResults(want, sg.Fuse(sg.Keys, again)); err != nil {
		return fmt.Errorf("short-circuit fuse: %w", err)
	}
	return nil
}

// kernelCoverage counts the shapes a claim set exercised.
type kernelCoverage struct {
	threeBuckets, manyBuckets, multiMatch, nullGroup, allNull, rescaled int
}

func (cv *kernelCoverage) add(claims []Claim) {
	g := GroupClaims(claims)
	p, _ := prepareGroups(&g, nil, nil, 0.01, 1)
	for _, pg := range p.groups {
		if len(pg.norms) >= 3 {
			cv.threeBuckets++
		}
		if len(pg.norms) > 12 {
			cv.manyBuckets++
		}
		for ci := range pg.of {
			if pg.matchAt[ci+1]-pg.matchAt[ci] > 1 {
				cv.multiMatch++
			}
		}
		if len(pg.nullSrc) > 0 {
			cv.nullGroup++
		}
		if len(pg.src) == 0 {
			cv.allNull++
		}
		if pg.fuse != nil {
			cv.rescaled++
		}
	}
}

func randomKernelBytes(rng *rand.Rand) []byte {
	n := 11 + 3*(1+rng.Intn(90))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestFusionKernelMatchesReference runs the kernel comparison over
// random claim sets under every policy and checks the generator really
// produced the shapes the comparison is meant to cover.
func TestFusionKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cv kernelCoverage
	policies := map[Policy]int{}
	for i := 0; i < 400; i++ {
		data := randomKernelBytes(rng)
		claims, mk, workers := kernelCase(data)
		policies[mk().Policy]++
		cv.add(claims)
		if err := checkKernel(claims, mk, workers, randomKernelBytes(rng)); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
	}
	if len(policies) != 4 {
		t.Errorf("policies covered: %v, want all four", policies)
	}
	if cv.threeBuckets == 0 || cv.manyBuckets == 0 || cv.multiMatch == 0 || cv.nullGroup == 0 || cv.allNull == 0 || cv.rescaled == 0 {
		t.Errorf("generator missed a shape: %+v", cv)
	}
}

// TestFusionKernelTies pins the tie rules on hand-built groups whose
// heaviest buckets tie in weight and normalised text: up to twelve
// buckets the first created wins; beyond, the reference's unstable
// sort.Slice decides, and with three or more tied buckets at the head
// it does not always pick the first.
func TestFusionKernelTies(t *testing.T) {
	policies := []Policy{MajorityVote, WeightedVote, TruthFinder, FreshnessWeighted}
	for _, n := range []int{2, 3, 12, 13, 16, 24} {
		for _, policy := range policies {
			var claims []Claim
			for i := 0; i < n; i++ {
				x := 7.3 * float64(1+i/2)
				if i%2 == 1 {
					x = -x
				}
				claims = append(claims, Claim{Entity: "e", Attribute: "price", Value: dataset.Float(x), SourceID: fmt.Sprintf("s%d", i)})
			}
			mk := func() Options { return DefaultOptions(policy) }
			if err := checkKernel(claims, mk, 1, nil); err != nil {
				t.Fatalf("n=%d policy=%s: %v", n, policy, err)
			}
		}
	}
	// One source claims every value, so weights are count × trust: the
	// four "1 1e 07" values, claimed twice each, tie at the head among
	// 13–30 buckets in shuffled creation order.
	rng := rand.New(rand.NewSource(3))
	tied := []float64{1.1e7, -1.1e7, 1.1e-7, -1.1e-7}
	for trial := 0; trial < 300; trial++ {
		var vals []float64
		for _, x := range tied {
			vals = append(vals, x, x)
		}
		for i := 0; i < 9+rng.Intn(18); i++ {
			vals = append(vals, 7.3*float64(i+1))
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		var claims []Claim
		for _, x := range vals {
			claims = append(claims, Claim{Entity: "e", Attribute: "price", Value: dataset.Float(x), SourceID: "s"})
		}
		policy := policies[trial%len(policies)]
		mk := func() Options { return DefaultOptions(policy) }
		if err := checkKernel(claims, mk, 1, nil); err != nil {
			t.Fatalf("trial %d policy=%s: %v", trial, policy, err)
		}
	}
}

// FuzzFusionKernel is the kernel comparison over arbitrary claim sets.
func FuzzFusionKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(randomKernelBytes(rng), randomKernelBytes(rng))
	}
	f.Fuzz(func(t *testing.T, data, prev []byte) {
		claims, mk, workers := kernelCase(data)
		if err := checkKernel(claims, mk, workers, prev); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPreparedGroupsConcurrentUse drives the prepared state from several
// goroutines at once, as the tail does: per-shard fuses over disjoint
// key subsets of one prepared grouping, and warm estimations of two
// different next rounds from one shared memo — each meeting a source
// the memo's dictionary does not know. Every result must match the
// reference; run under -race it also pins that nothing written after
// preparation is shared.
func TestPreparedGroupsConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	claims, mk, _ := kernelCase(randomKernelBytes(rng))
	g := GroupClaims(claims)
	opts, memo, _, _ := g.EstimateTrustWarm(mk(), nil, 2)
	ref := refEstimateTrust(claims, mk())
	want := refFuse(claims, ref)
	if err := diffTrust(ref.Trust, opts.Trust); err != nil {
		t.Fatal(err)
	}
	next := func(extra string) []Claim {
		out := slices.Clone(claims)
		out[0].SourceID = extra
		return out
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keys []string
			var sub []Result
			for i, k := range g.Keys {
				if i%2 == part {
					keys = append(keys, k)
					sub = append(sub, want[i])
				}
			}
			errs[part] = diffResults(sub, g.Fuse(keys, opts))
		}()
	}
	for r, extra := range []string{"fresh-a", "fresh-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			round := next(extra)
			ng := GroupClaims(round)
			got, _, _, _ := ng.EstimateTrustWarm(mk(), memo, 2)
			rref := refEstimateTrust(round, mk())
			if err := diffTrust(rref.Trust, got.Trust); err != nil {
				errs[2+r] = err
				return
			}
			errs[2+r] = diffResults(refFuse(round, rref), ng.Fuse(ng.Keys, got))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}
