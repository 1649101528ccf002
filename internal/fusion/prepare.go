package fusion

import (
	"context"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/text"
)

// This file is the one place fusion forms value buckets. A group's
// buckets depend only on its claims' values and the numeric tolerance,
// never on trust, so each (entity, attribute) group is prepared once per
// tail: the TruthFinder fixpoint iterates over the prepared form,
// Groups.Fuse votes over it, and a warm estimation carries an unchanged
// group's prepared form into the next round instead of rebuilding it.

// prepared is a grouping's prepared form: one group per Groups.Keys
// entry, built under one numeric tolerance, with source ids from one
// dictionary.
type prepared struct {
	tol    float64
	groups []*group // parallel to Groups.Keys
	dict   *sourceDict
}

// sourceDict encodes source ids as dense int32s. A dictionary is never
// written after the round that built it: the next round extends a copy
// (dictBuilder), so ids held by carried groups stay valid and a memo can
// be reused by any number of later rounds.
type sourceDict struct {
	names []string
	ids   map[string]int32
}

// dictBuilder hands out one round's ids, starting from the carried
// dictionary and copying it on the first name it does not know.
type dictBuilder struct {
	d     *sourceDict
	owned bool
}

func (b *dictBuilder) id(name string) int32 {
	if b.d != nil {
		if id, ok := b.d.ids[name]; ok {
			return id
		}
	}
	if !b.owned {
		d := &sourceDict{ids: map[string]int32{}}
		if b.d != nil {
			d.names = slices.Clone(b.d.names)
			d.ids = maps.Clone(b.d.ids)
		}
		b.d, b.owned = d, true
	}
	id := int32(len(b.d.names))
	b.d.names = append(b.d.names, name)
	b.d.ids[name] = id
	return id
}

// buckets partitions a group's non-null claims into equivalent-value
// buckets: each claim, in claim order, joins the first bucket (in
// creation order) whose representative it matches, or opens a new one.
type buckets struct {
	of     []int32  // per non-null claim, claim order: the bucket it joined
	rep    []int32  // per bucket: claim index of its representative
	count  []int32  // per bucket: claims in it
	norms  []string // per bucket: the representative's normalised text
	scaled []bool   // per bucket: the representative was unit-reconciled; nil when none was
}

// value returns bucket b's representative value.
func (bk *buckets) value(claims []Claim, b int) dataset.Value {
	v := claims[bk.rep[b]].Value
	if bk.scaled != nil && bk.scaled[b] {
		return dataset.Float(v.FloatVal() / 100)
	}
	return v
}

// group is one (entity, attribute) group prepared for trust and fusion.
// The embedded buckets are over the claims as given — what the trust
// fixpoint iterates. Fusion votes over the unit-reconciled claims, which
// differ only where reconcileUnits rescaled a value; such a group carries
// its own fuse-side buckets.
type group struct {
	buckets
	src     []int32 // per non-null claim, claim order: source id
	nullSrc []int32 // per null claim: source id (seeded, never iterated)
	// match[matchAt[ci]:matchAt[ci+1]] lists the buckets non-null claim
	// ci matches. It can be more than its own bucket: under the numeric
	// tolerance a claim may match a bucket created after the one it
	// joined.
	matchAt []int32
	match   []int32
	fuse    *buckets // nil: fusion votes over the embedded buckets
}

// fuseBuckets returns the buckets fusion votes over.
func (g *group) fuseBuckets() *buckets {
	if g.fuse != nil {
		return g.fuse
	}
	return &g.buckets
}

// value is one non-null claim's value in the form bucketing compares.
// The normalised text is filled lazily: a numeric value needs it only as
// a bucket representative or against a non-numeric value.
type value struct {
	v      *dataset.Value
	scaled bool // the value reads as Float(v/100)
	num    bool
	normed bool
	f      float64
	norm   string
}

func newValue(v *dataset.Value, scaled bool) value {
	x := value{v: v, scaled: scaled, num: v.IsNumeric()}
	if x.num {
		x.f = v.FloatVal()
		if scaled {
			x.f /= 100
		}
	}
	return x
}

func (x *value) normOf() string {
	if !x.normed {
		v := *x.v
		if x.scaled {
			v = dataset.Float(x.f)
		}
		x.norm, x.normed = normText(v.String()), true
	}
	return x.norm
}

// normText is text.Normalize with a fast path for text already in normal
// form — runs of lowercase ASCII letters and digits separated by single
// spaces — which Normalize would return unchanged.
func normText(s string) string {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case c == ' ' && i > 0 && i < len(s)-1 && s[i-1] != ' ':
		default:
			return text.Normalize(s)
		}
	}
	return s
}

// same is fusion's one value-equivalence rule: two numeric values match
// within relative tolerance tol, anything else by normalised text.
func same(a, b *value, tol float64) bool {
	if a.num && b.num {
		if a.f == b.f {
			return true
		}
		den := math.Max(math.Abs(a.f), math.Abs(b.f))
		return den > 0 && math.Abs(a.f-b.f)/den <= tol
	}
	return a.normOf() == b.normOf()
}

// sameValue applies the equivalence rule to two values.
func sameValue(a, b dataset.Value, tol float64) bool {
	x, y := newValue(&a, false), newValue(&b, false)
	return same(&x, &y, tol)
}

// values appends to vals the group's non-null claim values — read as
// divided by 100 where scaled says so — and to at each one's claim index.
func values(claims []Claim, scaled []bool, vals []value, at []int32) ([]value, []int32) {
	for i := range claims {
		if claims[i].Value.IsNull() {
			continue
		}
		vals = append(vals, newValue(&claims[i].Value, scaled != nil && scaled[i]))
		at = append(at, int32(i))
	}
	return vals, at
}

// formBuckets buckets vals into bk (whose slices are reused from
// length zero) and returns, per bucket, the index in vals of its
// representative, appended to reps.
func formBuckets(bk *buckets, vals []value, at []int32, scaled []bool, tol float64, reps []int32) []int32 {
	bk.of, bk.rep, bk.count, bk.norms = bk.of[:0], bk.rep[:0], bk.count[:0], bk.norms[:0]
	bk.scaled = bk.scaled[:0]
	for ci := range vals {
		bi := -1
		for i, ri := range reps {
			if same(&vals[ri], &vals[ci], tol) {
				bi = i
				break
			}
		}
		if bi < 0 {
			bi = len(reps)
			reps = append(reps, int32(ci))
			bk.rep = append(bk.rep, at[ci])
			bk.count = append(bk.count, 0)
			bk.norms = append(bk.norms, vals[ci].normOf())
			if scaled != nil {
				bk.scaled = append(bk.scaled, scaled[at[ci]])
			}
		}
		bk.of = append(bk.of, int32(bi))
		bk.count[bi]++
	}
	if scaled == nil {
		bk.scaled = nil
	}
	return reps
}

// prepScratch is the per-group working state of bucket formation.
type prepScratch struct {
	vals    []value
	at      []int32
	reps    []int32
	bk      buckets
	matchAt []int32
	match   []int32
}

// prepareGroup builds a group's buckets over its claims, each non-null
// claim's match list against the final bucket set, and — when
// reconcileUnits rescales any claim — the fuse-side buckets over the
// reconciled claims. Buckets form in the caller's scratch and are then
// copied into one exact-size int32 slab per group, which also holds the
// source ids encodeSources fills in.
func prepareGroup(claims []Claim, tol float64, sc *prepScratch) *group {
	vals, at := values(claims, nil, sc.vals[:0], sc.at[:0])
	reps := formBuckets(&sc.bk, vals, at, nil, tol, sc.reps[:0])
	matchAt, match := append(sc.matchAt[:0], 0), sc.match[:0]
	for ci := range vals {
		// No bucket created before the one a claim joined matches it.
		for b := sc.bk.of[ci]; int(b) < len(reps); b++ {
			if same(&vals[reps[b]], &vals[ci], tol) {
				match = append(match, b)
			}
		}
		matchAt = append(matchAt, int32(len(match)))
	}
	n := len(vals)
	slab := make([]int32, 0, 3*n+1+len(match)+2*len(reps))
	g := &group{buckets: sc.bk.compact(&slab)}
	g.src = reserve(&slab, n)
	g.matchAt = carve(&slab, matchAt)
	g.match = carve(&slab, match)
	if scaled := reconcileUnits(claims); scaled != nil {
		vals, at = values(claims, scaled, vals[:0], at[:0])
		reps = formBuckets(&sc.bk, vals, at, scaled, tol, reps[:0])
		fslab := make([]int32, 0, n+2*len(reps))
		fb := sc.bk.compact(&fslab)
		g.fuse = &fb
	}
	sc.vals, sc.at, sc.reps, sc.matchAt, sc.match = vals[:0], at[:0], reps[:0], matchAt[:0], match[:0]
	return g
}

// compact copies bk into exact-size storage carved from slab.
func (bk *buckets) compact(slab *[]int32) buckets {
	return buckets{
		of:     carve(slab, bk.of),
		rep:    carve(slab, bk.rep),
		count:  carve(slab, bk.count),
		norms:  slices.Clone(bk.norms),
		scaled: slices.Clone(bk.scaled),
	}
}

// reserve extends slab by n zeroed entries within its capacity and
// returns them.
func reserve(slab *[]int32, n int) []int32 {
	s := *slab
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// carve copies xs into slab's spare capacity and returns that region.
func carve(slab *[]int32, xs []int32) []int32 {
	out := reserve(slab, len(xs))
	copy(out, xs)
	return out
}

// encodeSources fills g's source ids from claims.
func (b *dictBuilder) encodeSources(g *group, claims []Claim) {
	i := 0
	for _, c := range claims {
		if c.Value.IsNull() {
			g.nullSrc = append(g.nullSrc, b.id(c.SourceID))
		} else {
			g.src[i] = b.id(c.SourceID)
			i++
		}
	}
}

// prepareGroups prepares every group of g not already in carried
// (parallel to g.Keys; nil entries are prepared). With more than one
// worker the fresh groups are split into contiguous runs — four per
// worker, as engine.Map batches, so a run of costly groups does not
// leave a worker idle — each prepared with its own scratch. Each
// group's buckets are a pure
// function of its own claims, so the parallel build is identical to the
// sequential loop. Source ids are assigned afterwards, in key order,
// extending dict.
func prepareGroups(g *Groups, carried []*group, dict *sourceDict, tol float64, workers int) (*prepared, int) {
	groups := make([]*group, len(g.Keys))
	var fresh []int
	for i := range g.Keys {
		if carried != nil && carried[i] != nil {
			groups[i] = carried[i]
		} else {
			fresh = append(fresh, i)
		}
	}
	prepare := func(run []int) {
		var sc prepScratch
		for _, i := range run {
			groups[i] = prepareGroup(g.Claims[g.Keys[i]], tol, &sc)
		}
	}
	w := engine.Workers(workers)
	runs := [][]int{fresh}
	if n := min(4*w, len(fresh)); w > 1 && n > 1 {
		runs = make([][]int, n)
		for r := range runs {
			runs[r] = fresh[r*len(fresh)/n : (r+1)*len(fresh)/n]
		}
	}
	if len(runs) == 1 {
		prepare(fresh)
	} else if err := engine.Map(context.Background(), w, len(runs), func(_ context.Context, r int) error {
		prepare(runs[r])
		return nil
	}); err != nil {
		// A recovered panic: rerun sequentially so it surfaces from the
		// caller's own stack.
		prepare(fresh)
	}
	b := dictBuilder{d: dict}
	for _, i := range fresh {
		b.encodeSources(groups[i], g.Claims[g.Keys[i]])
	}
	if b.d == nil {
		b.d = &sourceDict{}
	}
	return &prepared{tol: tol, groups: groups, dict: b.d}, len(fresh)
}

// reconcileUnits finds numeric claims that sit ~100× above the group's
// median — sources reporting cents instead of dollars — and returns, per
// claim, whether fusion reads its value divided by 100 (nil when no
// claim is rescaled). The unit error is syntactic, not a genuine
// conflict, so it is repaired before voting rather than outvoted. Trust
// estimation reads the claims as given.
func reconcileUnits(claims []Claim) []bool {
	var buf [32]float64
	nums := buf[:0]
	for _, c := range claims {
		if c.Value.IsNumeric() {
			nums = append(nums, c.Value.FloatVal())
		}
	}
	if len(nums) < 2 {
		return nil
	}
	sort.Float64s(nums)
	median := nums[len(nums)/2]
	if median <= 0 {
		return nil
	}
	var scaled []bool
	for i, c := range claims {
		if !c.Value.IsNumeric() {
			continue
		}
		if ratio := c.Value.FloatVal() / median; ratio > 95 && ratio < 105 {
			if scaled == nil {
				scaled = make([]bool, len(claims))
			}
			scaled[i] = true
		}
	}
	return scaled
}

// sumDesc returns the weights summed from largest to smallest, the order
// fusion has always totalled bucket weights in. Float addition is
// commutative but not associative, so up to two weights any order gives
// the same bits; three or more are insertion-sorted into buf first.
func sumDesc(w, buf []float64) float64 {
	if len(w) >= 3 {
		s := buf[:len(w)]
		for i, x := range w {
			j := i
			for j > 0 && s[j-1] < x {
				s[j] = s[j-1]
				j--
			}
			s[j] = x
		}
		w = s
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	return total
}
