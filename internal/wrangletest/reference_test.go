package wrangletest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	wctx "repro/internal/context"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/sources"
)

// This file is the harness's independent oracle for the integration
// tail. The tail plans shards, resolves them in a fan-out, merges roots,
// routes claims and fuses per shard; the reference does none of that. It
// recomputes from scratch, over the wrangler's current union and with
// only the public whole-set primitives, what the tail must have
// produced: one constrained resolve over the whole union
// (er.ResolveConstrained), entity naming, one claim per (row,
// attribute), one whole-set trust estimation and fuse over one grouping
// (fusion.GroupClaims, Groups.EstimateTrust at one worker, Groups.Fuse)
// and the materialised table. None of the tail's code runs, so a shared
// bug cannot make the two agree; the fusion kernel itself is pinned
// against a frozen copy of its sort-based predecessor in
// internal/fusion's kernel tests.

// CheckReference recomputes the integration tail from the wrangler's
// union, resolver and feedback and compares it with the wrangler's own
// output: clustering, per-row entity ids, fused results, trust and the
// wrangled table, all exactly. It returns the first differing line.
func CheckReference(w *core.Wrangler) error {
	got := tailOutputOf(w)
	want, err := referenceTail(w)
	if err != nil {
		return fmt.Errorf("reference recompute: %w", err)
	}
	if g, r := got.render(), want.render(); g != r {
		return fmt.Errorf("tail output differs from the reference recompute:\n%s", lineDiff(r, g, "reference", "tail"))
	}
	return nil
}

// tailOutput is what an integration tail produces over one union.
type tailOutput struct {
	clusters *er.Clustering
	entities []string // per union row
	results  []fusion.Result
	trust    map[string]float64
	table    *dataset.Table
}

func tailOutputOf(w *core.Wrangler) tailOutput {
	out := tailOutput{results: w.Results(), trust: w.Trust(), table: w.Wrangled()}
	if u := w.Union(); u != nil && u.Len() > 0 {
		out.clusters = w.Clusters()
		out.entities = make([]string, u.Len())
		for i := range out.entities {
			out.entities[i] = w.EntityOf(i)
		}
	}
	return out
}

// render prints every field exactly: floats in shortest round-trip form,
// table cells by their typed keys. An empty union renders only the
// (empty) table and results — its trust is whatever the last non-empty
// integration estimated.
func (o tailOutput) render() string {
	var b strings.Builder
	if o.clusters != nil {
		fmt.Fprintf(&b, "clusters %d\n", o.clusters.Num)
		for i, e := range o.entities {
			fmt.Fprintf(&b, "union row %d: cluster %d entity %s\n", i, o.clusters.Assign[i], e)
		}
		srcs := make([]string, 0, len(o.trust))
		for s := range o.trust {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		for _, s := range srcs {
			fmt.Fprintf(&b, "trust %s=%s\n", s, strconv.FormatFloat(o.trust[s], 'g', -1, 64))
		}
	}
	for _, r := range o.results {
		fmt.Fprintf(&b, "result %s/%s = %s conf=%s support=%d conflict=%v\n", r.Entity, r.Attribute,
			r.Value.Key(), strconv.FormatFloat(r.Confidence, 'g', -1, 64), r.Support, r.Conflict)
	}
	if o.table != nil {
		for i := 0; i < o.table.Len(); i++ {
			cells := make([]string, len(o.table.Row(i)))
			for j, v := range o.table.Row(i) {
				cells[j] = v.Key()
			}
			fmt.Fprintf(&b, "table row %d: %s\n", i, strings.Join(cells, "|"))
		}
	}
	return b.String()
}

// referenceTail is the from-scratch recompute: union → ResolveConstrained
// → entity names → claims → trust → fuse → materialise.
func referenceTail(w *core.Wrangler) (tailOutput, error) {
	u := w.Union()
	if u == nil || u.Len() == 0 {
		return tailOutput{table: dataset.NewTable(w.Config.Target.Clone())}, nil
	}
	// A copy: resolving prepares matcher state on the resolver, and the
	// wrangler's own resolver must stay exactly as its tail left it.
	res := *w.Resolver()
	must, cannot := referenceConstraints(w)
	clusters, _, err := res.ResolveConstrained(u, must, cannot)
	if err != nil {
		return tailOutput{}, err
	}
	entities := referenceEntityNames(u, clusters, w.Config.KeyColumn)
	groups := fusion.GroupClaims(referenceClaims(w, u, entities))
	opts, _ := groups.EstimateTrust(referenceFusionOptions(w), 1)
	results := groups.Fuse(groups.Keys, opts)
	return tailOutput{
		clusters: clusters,
		entities: entities,
		results:  results,
		trust:    opts.Trust,
		table:    referenceMaterialize(results, w.Config.Target),
	}, nil
}

// referenceConstraints turns confident pair feedback into must- and
// cannot-links: an expert label or a crowd majority with |score| >= 0.75.
func referenceConstraints(w *core.Wrangler) (must, cannot []er.Pair) {
	rowByKey := map[string]int{}
	for i := 0; i < w.Union().Len(); i++ {
		rowByKey[w.RowKey(i)] = i
	}
	for pairKey, dup := range w.Feedback.PairLabels() {
		if score := w.Feedback.PairScore(pairKey); score < 0.75 && score > -0.75 {
			continue
		}
		a, b, ok := strings.Cut(pairKey, "|")
		if !ok {
			continue
		}
		i, iok := rowByKey[a]
		j, jok := rowByKey[b]
		if !iok || !jok || i == j {
			continue
		}
		if dup {
			must = append(must, orderedPair(i, j))
		} else {
			cannot = append(cannot, orderedPair(i, j))
		}
	}
	return must, cannot
}

// referenceEntityNames names each cluster by its most frequent non-null
// key value (ties to the smaller value), else "entity-<cluster>".
func referenceEntityNames(u *dataset.Table, c *er.Clustering, keyColumn string) []string {
	kc := u.Schema().Index(keyColumn)
	names := make([]string, u.Len())
	for cid, rows := range c.Clusters() {
		counts := map[string]int{}
		for _, row := range rows {
			if kc >= 0 && !u.Row(row)[kc].IsNull() {
				counts[u.Row(row)[kc].String()]++
			}
		}
		best, bestN := "", 0
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		if best == "" {
			best = fmt.Sprintf("entity-%04d", cid)
		}
		for _, row := range rows {
			names[row] = best
		}
	}
	return names
}

// referenceClaims emits one claim per (union row, attribute) in row
// order; the time column dates each claim and is not itself claimed.
func referenceClaims(w *core.Wrangler, u *dataset.Table, entities []string) []fusion.Claim {
	tc := -1
	if w.Config.TimeColumn != "" {
		tc = u.Schema().Index(w.Config.TimeColumn)
	}
	var claims []fusion.Claim
	for i, row := range u.Rows() {
		c := fusion.Claim{Entity: entities[i], SourceID: w.UnionSourceOf(i)}
		if tc >= 0 && row[tc].Kind() == dataset.KindTime {
			c.AsOf = row[tc].TimeVal()
		}
		for ci, f := range u.Schema() {
			if ci != tc {
				c.Attribute, c.Value = f.Name, row[ci]
				claims = append(claims, c)
			}
		}
	}
	return claims
}

// referenceFusionOptions picks freshness-weighted fusion for
// timeliness-heavy contexts and TruthFinder otherwise, anchored at the
// provider clock, with feedback-derived source trust pinned.
func referenceFusionOptions(w *core.Wrangler) fusion.Options {
	policy := fusion.TruthFinder
	if w.UserCtx.Weight(wctx.Timeliness) >= 0.3 && w.Config.TimeColumn != "" {
		policy = fusion.FreshnessWeighted
	}
	opts := fusion.DefaultOptions(policy)
	opts.Now = sources.AsOf(w.Provider.Clock())
	opts.Pinned = map[string]bool{}
	for src, t := range w.Feedback.SourceTrust() {
		opts.Trust[src] = t
		opts.Pinned[src] = true
	}
	return opts
}

// referenceMaterialize builds one row per fused entity, entities sorted,
// null where an attribute has no result.
func referenceMaterialize(results []fusion.Result, target dataset.Schema) *dataset.Table {
	byEntity := map[string]map[string]dataset.Value{}
	var order []string
	for _, r := range results {
		if byEntity[r.Entity] == nil {
			byEntity[r.Entity] = map[string]dataset.Value{}
			order = append(order, r.Entity)
		}
		byEntity[r.Entity][r.Attribute] = r.Value
	}
	sort.Strings(order)
	t := dataset.NewTable(target.Clone())
	for _, e := range order {
		row := make(dataset.Record, len(target))
		for i, f := range target {
			v, ok := byEntity[e][f.Name]
			if !ok {
				v = dataset.Null()
			}
			row[i] = v
		}
		t.Append(row)
	}
	return t
}
