package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/extract"
	"repro/internal/fusion"
	"repro/internal/html"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/quality"
	"repro/wrangle"
	"repro/wrangle/synth"
)

// replayer times calls into each layer's public functions on the
// workload's final inputs, as the reference session holds them after the
// oracle. Every call is a span under one replay root (op -1); each call
// repeats replayReps times and the median is reported.
type replayer struct {
	r    *runner
	root int
}

// timed runs fn replayReps times and returns the median duration in ms.
func (p *replayer) timed(name string, fn func() error) (float64, error) {
	var xs []float64
	for k := 0; k < p.r.cfg.size.replayReps; k++ {
		start := time.Now()
		err := fn()
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", name, err)
		}
		p.r.tr.record(0, p.root, -1, name, start, end)
		xs = append(xs, ms(end.Sub(start)))
	}
	return median(xs), nil
}

func (r *runner) replay(ctx context.Context, ref *reference) error {
	p := &replayer{r: r, root: r.tr.id()}
	start := time.Now()
	mapped, err := p.sources(ref)
	if err != nil {
		return err
	}
	if err := p.repair(ref, mapped); err != nil {
		return err
	}
	if err := p.tail(ref); err != nil {
		return err
	}
	r.tr.record(p.root, 0, -1, "replay", start, time.Now())
	return ctx.Err()
}

// sources replays every source's extract → match → map → assess chain
// the way core does for a cold run (no master data), summing each layer
// over the sources. It returns the mapped tables by source id.
func (p *replayer) sources(ref *reference) (map[string]*dataset.Table, error) {
	cfg := ref.w.Config
	tax := wrangle.ProductTaxonomy()
	asOf := synth.AsOf(ref.u.Clock())
	mapped := map[string]*dataset.Table{}
	sums := map[string]float64{}
	for _, src := range ref.u.List() {
		var tab, out *dataset.Table
		var m *mapping.Mapping
		var corrs []match.Correspondence
		steps := []struct {
			name string
			fn   func() error
		}{
			{"extract.parse", func() (err error) { tab, err = extractTable(src, tax); return err }},
			{"match.match", func() (err error) {
				corrs, err = match.NewMatcher(cfg.Target, match.WithTaxonomy(tax)).Match(tab)
				return err
			}},
			{"mapping.apply", func() (err error) {
				m = mapping.Generate("map-"+src.ID, src.ID, cfg.Target, corrs)
				if _, err = mapping.EstimateQuality(m, tab, nil, cfg.KeyColumn); err != nil {
					return err
				}
				out, err = m.Apply(tab)
				return err
			}},
			{"quality.assess", func() error {
				_, err := quality.Assess(out, nil, cfg.KeyColumn, cfg.TimeColumn, asOf, 24*time.Hour, nil)
				return err
			}},
		}
		for _, st := range steps {
			d, err := p.timed(st.name, st.fn)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", src.ID, err)
			}
			sums[st.name] += d
		}
		mapped[src.ID] = out
	}
	for name, d := range sums {
		p.r.values[name+"_ms"] = d
	}
	return mapped, nil
}

func extractTable(src *wrangle.Source, tax *wrangle.Taxonomy) (*dataset.Table, error) {
	switch src.Kind {
	case wrangle.CSV:
		return dataset.ReadCSV(strings.NewReader(src.Payload()))
	case wrangle.JSON:
		return dataset.ReadJSON(strings.NewReader(src.Payload()))
	case wrangle.KV:
		return dataset.ReadKV(strings.NewReader(src.Payload()))
	case wrangle.HTML:
		page := html.Parse(src.Payload())
		w, err := extract.Induce(src.ID, page, tax)
		if err != nil {
			return nil, err
		}
		_, tab, _, err := extract.Repair(w, page, nil, tax)
		return tab, err
	}
	return nil, fmt.Errorf("unknown source kind %q", src.Kind)
}

// repair replays FD discovery and repair on the union of the selected
// sources' replayed mapped tables, before repair — the input core's
// union build repairs.
func (p *replayer) repair(ref *reference, mapped map[string]*dataset.Table) error {
	target := ref.w.Config.Target
	base := dataset.NewTable(target.Clone())
	for _, id := range ref.w.SelectedSources() {
		if t := mapped[id]; t != nil {
			for _, row := range t.Rows() {
				base.Append(row.Clone())
			}
		}
	}
	cells := 0
	d, err := p.timed("quality.fd_repair", func() error {
		u := dataset.NewTable(target.Clone())
		for _, row := range base.Rows() {
			u.Append(row.Clone())
		}
		var err error
		_, cells, _, err = quality.ProfileAndRepairRows(u, 0.9)
		return err
	})
	if err != nil {
		return err
	}
	p.r.values["quality.fd_repair_ms"] = d
	p.r.values["quality.cells_repaired"] = float64(cells)
	return nil
}

// replayShards is the shard count of the replayed plan, the count the
// sharded workloads run with.
const replayShards = 4

// tail replays entity resolution and fusion on the reference's final
// union (after FD repair), with its resolver, row keys and entities.
func (p *replayer) tail(ref *reference) error {
	w := ref.w
	t, res := w.Union(), w.Resolver()
	if t == nil || res == nil {
		return fmt.Errorf("reference holds no integrated union")
	}
	v := p.r.values
	keys := make([]string, t.Len())
	for i := range keys {
		keys[i] = w.RowKey(i)
	}
	var err error
	if v["er.prepare_ms"], err = p.timed("er.prepare", func() error { res.Prepare(t); return nil }); err != nil {
		return err
	}
	pairs := 0
	if v["er.pairs_ms"], err = p.timed("er.pairs", func() error { pairs = len(res.CandidatePairs(t)); return nil }); err != nil {
		return err
	}
	v["er.candidate_pairs"] = float64(pairs)

	var plan *er.ShardPlan
	if v["er.plan_ms"], err = p.timed("er.plan", func() (err error) {
		plan, err = res.PlanShards(t, replayShards, nil, keys)
		return err
	}); err != nil {
		return err
	}
	v["er.plan_components"] = float64(plan.Components)

	// Each shard resolves on its own; skew is the slowest shard over the
	// mean, what a parallel resolve waits for.
	roots := make([]map[int]int, plan.NumShards)
	var total, slowest float64
	for sh := range roots {
		d, err := p.timed(fmt.Sprintf("er.resolve_shard[%d]", sh), func() (err error) {
			roots[sh], _, err = res.ResolveShard(t, plan, sh, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		total += d
		slowest = max(slowest, d)
	}
	v["er.resolve_ms"] = total
	v["er.shard_skew"] = ratio(slowest, total/float64(plan.NumShards))
	if v["er.merge_roots_ms"], err = p.timed("er.merge_roots", func() error {
		_, err := plan.MergeRoots(roots)
		return err
	}); err != nil {
		return err
	}
	return p.fusion(ref)
}

// fusion replays trust estimation and per-group fusion on the claims the
// reference's tail built: one per (union row, attribute), freshness from
// the time column, feedback-pinned trust as seeds.
func (p *replayer) fusion(ref *reference) error {
	w := ref.w
	t := w.Union()
	schema := t.Schema()
	tc := schema.Index(w.Config.TimeColumn)
	var claims []fusion.Claim
	for i, row := range t.Rows() {
		var asOf time.Time
		if tc >= 0 && row[tc].Kind() == dataset.KindTime {
			asOf = row[tc].TimeVal()
		}
		for ci, f := range schema {
			if ci != tc {
				claims = append(claims, fusion.Claim{Entity: w.EntityOf(i), Attribute: f.Name,
					Value: row[ci], SourceID: w.UnionSourceOf(i), AsOf: asOf})
			}
		}
	}
	options := func() fusion.Options {
		o := fusion.DefaultOptions(fusion.TruthFinder)
		o.Now = synth.AsOf(ref.u.Clock())
		o.Pinned = map[string]bool{}
		for src, tr := range w.Feedback.SourceTrust() {
			o.Trust[src] = tr
			o.Pinned[src] = true
		}
		return o
	}
	v := p.r.values
	var opts fusion.Options
	var st fusion.TrustStats
	var err error
	if v["fusion.trust_ms"], err = p.timed("fusion.trust", func() error {
		opts, st = fusion.EstimateTrustParallel(claims, options(), p.r.cfg.workers)
		return nil
	}); err != nil {
		return err
	}
	iters := 0
	for _, n := range st.Iterations {
		iters += n
	}
	v["fusion.trust_components"] = float64(st.Components)
	v["fusion.trust_iterations"] = float64(iters)
	if v["fusion.fuse_ms"], err = p.timed("fusion.fuse", func() error {
		fusion.FuseResolved(claims, opts)
		return nil
	}); err != nil {
		return err
	}
	v["fusion.claims"] = float64(len(claims))
	return nil
}
