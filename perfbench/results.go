package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// finish closes a workload run after its measured window: the lanes'
// durable epilogue (when set; it closes the session), the oracle and, in
// a traced run, the layer replay. Lanes that fingerprinted every op
// (cold-run) are checked op by op, the others on their final state.
func (r *runner) finish(ctx context.Context, durable func(*lane) error) error {
	for _, l := range r.lanes {
		if l.s == nil {
			return fmt.Errorf("lane %d: no op completed", l.j)
		}
		if l.w != nil {
			l.w.stop()
		}
		if l.prints == nil {
			v, err := l.s.View()
			if err != nil {
				return err
			}
			l.final = fingerprint(v.Table(), v.Trust())
		}
		if durable != nil {
			if err := durable(l); err != nil {
				return err
			}
		}
		l.s, l.w = nil, nil // the references below need the memory
	}
	// The references are independent sequential sessions over their own
	// universes: after the window they replay on every CPU at once.
	refs := make([]*reference, len(r.lanes))
	mismatches := make([][]error, len(r.lanes))
	errs := make([]error, len(r.lanes))
	sem := make(chan struct{}, r.cfg.workers)
	var wg sync.WaitGroup
	for j, l := range r.lanes {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			refs[j], mismatches[j], errs[j] = verify(ctx, l, r.cfg.size)
		}()
	}
	wg.Wait()
	for j, ref := range refs {
		if errs[j] != nil {
			return fmt.Errorf("lane %d oracle: %w", j, errs[j])
		}
		for _, err := range mismatches[j] {
			r.fail(-1, err)
		}
		r.input["input.sources"] += float64(len(ref.u.List()))
		r.input["input.rows_extracted"] += float64(ref.run.RowsExtracted)
		r.input["input.union_rows"] += float64(ref.unionRows)
		r.input["input.rows_wrangled"] += float64(ref.run.RowsWrangled)
	}
	for k, v := range r.input {
		r.values[k] = v / float64(len(r.lanes)) // per lane
	}
	if r.cfg.trace {
		// Lane 0's final inputs stand for the workload's.
		if err := r.replay(ctx, refs[0]); err != nil {
			return err
		}
	}
	return r.collect()
}

// collect turns the op records into metric values. Percentiles come
// from the ops that succeeded; one the sample cannot support fails the
// run rather than being reported.
func (r *runner) collect() error {
	var ok []*opRecord
	for i := range r.ops {
		if !r.ops[i].failed {
			ok = append(ok, &r.ops[i])
		}
	}
	pick := func(keep func(*opRecord) bool, val func(*opRecord) float64) []float64 {
		var xs []float64
		for _, rec := range ok {
			if keep == nil || keep(rec) {
				xs = append(xs, val(rec))
			}
		}
		return xs
	}
	latency := func(rec *opRecord) float64 { return ms(rec.latency) }
	v := r.values
	pct := func(name string, xs []float64, q float64) error {
		x, err := percentile(xs, q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = x
		return nil
	}
	// A percentile of an op kind or layer the workload never ran is 0.
	pctOrZero := func(name string, xs []float64, q float64) error {
		if len(xs) == 0 {
			v[name] = 0
			return nil
		}
		return pct(name, xs, q)
	}

	v["setup_s"] = median(r.setupS)
	cpu := func(rec *opRecord) float64 { return ms(rec.cpu) }
	if err := pct("op_cpu_p50_ms", pick(nil, cpu), 0.5); err != nil {
		return err
	}
	if err := pct("op_cpu_p90_ms", pick(nil, cpu), 0.9); err != nil {
		return err
	}
	var alloc, mallocs, gcs, pause float64
	for _, rec := range r.ops {
		alloc += float64(rec.allocBytes)
		mallocs += float64(rec.mallocs)
		gcs += float64(rec.gcs)
		pause += float64(rec.gcPauseNs)
	}
	n := float64(len(r.ops))
	v["alloc_mb_per_op"] = alloc / n / 1e6
	if !r.cfg.trace {
		return nil
	}

	lat := pick(nil, latency)
	if err := pct("latency.op_p50_ms", lat, 0.5); err != nil {
		return err
	}
	if err := pct("latency.op_p90_ms", lat, 0.9); err != nil {
		return err
	}
	if err := pct("latency.fresh_p90_ms", pick(nil, func(rec *opRecord) float64 { return ms(rec.fresh) }), 0.9); err != nil {
		return err
	}
	v["host.steal_pct"] = r.stealPct

	v["runtime.allocs_per_op"] = mallocs / n
	v["runtime.gc_per_op"] = gcs / n
	v["runtime.gc_pause_ms_per_op"] = pause / n / 1e6

	mean := func(val func(*opRecord) float64) float64 {
		xs := pick(nil, val)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	for _, stage := range []string{"sources", "select", "reextract", "integrate", "replan", "resolve", "trust", "fuse", "merge"} {
		v["stage."+stage+"_ms"] = mean(func(rec *opRecord) float64 { return ms(rec.stages[stage]) })
	}
	// Overlap: summed per-source chain time over the wall time of the
	// sources phase (a run's wall clock minus its select and tail).
	var chains, phase float64
	for _, rec := range ok {
		if rec.runWall > 0 {
			chains += ms(rec.stages["sources"])
			phase += ms(rec.runWall - rec.stages["select"] - rec.stages["integrate"])
		}
	}
	v["engine.source_overlap"] = ratio(chains, phase)
	kind := func(k string) func(*opRecord) bool { return func(rec *opRecord) bool { return rec.kind == k } }
	if err := pctOrZero("react.refresh_p50_ms", pick(kind("refresh"), latency), 0.5); err != nil {
		return err
	}
	if err := pctOrZero("react.feedback_p50_ms", pick(kind("feedback"), latency), 0.5); err != nil {
		return err
	}
	v["sources.acquire_ms"] = mean(func(rec *opRecord) float64 { return ms(rec.acquireBusy) })
	v["sources.acquired"] = mean(func(rec *opRecord) float64 { return float64(rec.acquired) })

	var reused, resolved, recomputed, components, shared, changed float64
	for _, rec := range ok {
		reused += float64(rec.shardsReused)
		resolved += float64(rec.shardsResolved)
		recomputed += float64(rec.trustRecomputed)
		components += float64(rec.trustComponents)
		shared += float64(rec.changes.SharedPages)
		changed += float64(rec.changes.ChangedPages)
	}
	v["core.shards_reused_ratio"] = ratio(reused, reused+resolved)
	v["fusion.trust_recomputed_ratio"] = ratio(recomputed, components)
	v["serve.shared_pages_ratio"] = ratio(shared, shared+changed)
	deliver := pick(nil, func(rec *opRecord) float64 { return float64(rec.deliver) / float64(time.Microsecond) })
	if err := pct("serve.deliver_us_p50", deliver, 0.5); err != nil {
		return err
	}
	if err := pct("serve.deliver_us_p90", deliver, 0.9); err != nil {
		return err
	}
	var frames []float64 // serialised on traced ops only
	for _, rec := range ok {
		if rec.traced {
			frames = append(frames, float64(rec.frameBytes))
		}
	}
	v["serve.frame_bytes"] = median(frames)
	v["serve.gaps"] = float64(r.gaps)
	v["serve.evictions"] = float64(r.evictions)

	restarted := func(rec *opRecord) bool { return rec.kind == "restart" }
	v["durable.restore_ms"] = median(pick(restarted, func(rec *opRecord) float64 { return ms(rec.restore) }))
	v["durable.first_react_ms"] = median(pick(restarted, func(rec *opRecord) float64 { return ms(rec.firstReact) }))
	v["durable.close_ms"] = median(pick(restarted, func(rec *opRecord) float64 { return ms(rec.close) }))
	v["wal.bytes_per_version"] = median(pick(func(rec *opRecord) bool { return rec.walGrowth > 0 },
		func(rec *opRecord) float64 { return float64(rec.walGrowth) }))
	for _, name := range []string{"durable.checkpoint_ms", "wal.log_bytes", "wal.retained_versions"} {
		if _, set := v[name]; !set {
			v[name] = 0 // no durable log in this workload
		}
	}

	// Overhead in CPU time, which the host's steal does not move.
	traced := pick(func(rec *opRecord) bool { return rec.traced }, cpu)
	untraced := pick(func(rec *opRecord) bool { return !rec.traced }, cpu)
	if err := pct("trace.op_cpu_p50_ms", traced, 0.5); err != nil {
		return err
	}
	base, err := percentile(untraced, 0.5)
	if err != nil {
		return fmt.Errorf("untraced op cpu p50: %w", err)
	}
	v["trace.overhead_pct"] = (v["trace.op_cpu_p50_ms"] - base) / base * 100
	v["trace.spans"] = float64(r.tr.count())
	return nil
}

// metadata is recorded with every result: a result is comparable only
// with one from the same CPU count, GOMAXPROCS and toolchain.
func (r *runner) metadata() map[string]any {
	input := map[string]float64{}
	for _, k := range []string{"input.sources", "input.rows_extracted", "input.union_rows", "input.rows_wrangled"} {
		input[k] = r.values[k]
	}
	return map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds.Seconds(), "trace": r.cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "workers": r.cfg.workers,
		"options": r.options, "shape_seed": shapeSeed, "lanes": len(r.lanes), "ops": len(r.ops), "input": input,
		"steal_pct": r.stealPct,
	}
}
