package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract: a run with tracing off reports
// exactly endToEnd, a traced run exactly perLayer, and BENCHMARK.json
// lists the same names (checked by TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
	higher     bool // higher is better (end-to-end metrics only)
}

// The end-to-end times are process CPU time, not wall-clock time: on a
// shared virtual machine wall-clock latency moves with the CPU time the
// host steals from the guest, by more than any useful bound, while CPU
// time excludes stolen time. Wall-clock latency is reported per layer,
// with the steal share it was measured under.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_cpu_p50_ms", unit: "ms"},
	{name: "op_cpu_p90_ms", unit: "ms"},
	{name: "alloc_mb_per_op", unit: "MB"},
	{name: "heap_live_mb", unit: "MB"},
	{name: "entity_f1", unit: "ratio", higher: true},
	{name: "price_accuracy", unit: "ratio", higher: true},
}

var perLayer = []metricDef{
	// Wall-clock latency of the same ops, and the host's CPU steal while
	// they ran.
	{name: "latency.op_p50_ms", unit: "ms"},
	{name: "latency.op_p90_ms", unit: "ms"},
	{name: "latency.fresh_p90_ms", unit: "ms"},
	{name: "host.steal_pct", unit: "%"},
	// Stage attribution from the published RunStats / ReactStats, mean per op.
	{name: "stage.sources_ms", unit: "ms"},
	{name: "engine.source_overlap", unit: "ratio"},
	{name: "stage.select_ms", unit: "ms"},
	{name: "stage.reextract_ms", unit: "ms"},
	{name: "stage.integrate_ms", unit: "ms"},
	{name: "stage.replan_ms", unit: "ms"},
	{name: "stage.resolve_ms", unit: "ms"},
	{name: "stage.trust_ms", unit: "ms"},
	{name: "stage.fuse_ms", unit: "ms"},
	{name: "stage.merge_ms", unit: "ms"},
	// Reaction split on the mixed refresh/feedback stream.
	{name: "react.refresh_p50_ms", unit: "ms"},
	{name: "react.feedback_p50_ms", unit: "ms"},
	// Source acquisition through the wrapping provider, per op.
	{name: "sources.acquire_ms", unit: "ms"},
	{name: "sources.acquired", unit: "count"},
	// Layer replay on the workload's final inputs.
	{name: "extract.parse_ms", unit: "ms"},
	{name: "match.match_ms", unit: "ms"},
	{name: "mapping.apply_ms", unit: "ms"},
	{name: "quality.assess_ms", unit: "ms"},
	{name: "quality.fd_repair_ms", unit: "ms"},
	{name: "quality.cells_repaired", unit: "count"},
	{name: "er.prepare_ms", unit: "ms"},
	{name: "er.pairs_ms", unit: "ms"},
	{name: "er.candidate_pairs", unit: "count"},
	{name: "er.plan_ms", unit: "ms"},
	{name: "er.plan_components", unit: "count"},
	{name: "er.resolve_ms", unit: "ms"},
	{name: "er.shard_skew", unit: "ratio"},
	{name: "er.merge_roots_ms", unit: "ms"},
	{name: "fusion.trust_ms", unit: "ms"},
	{name: "fusion.trust_components", unit: "count"},
	{name: "fusion.trust_iterations", unit: "count"},
	{name: "fusion.fuse_ms", unit: "ms"},
	{name: "fusion.claims", unit: "count"},
	// Memo usefulness of streaming reactions.
	{name: "core.shards_reused_ratio", unit: "ratio"},
	{name: "fusion.trust_recomputed_ratio", unit: "ratio"},
	// Change-feed delivery to the watcher.
	{name: "serve.deliver_us_p50", unit: "us"},
	{name: "serve.deliver_us_p90", unit: "us"},
	{name: "serve.frame_bytes", unit: "B"},
	{name: "serve.shared_pages_ratio", unit: "ratio"},
	{name: "serve.gaps", unit: "count"},
	{name: "serve.evictions", unit: "count"},
	// Durable log and warm restart.
	{name: "durable.restore_ms", unit: "ms"},
	{name: "durable.first_react_ms", unit: "ms"},
	{name: "durable.close_ms", unit: "ms"},
	{name: "durable.checkpoint_ms", unit: "ms"},
	{name: "wal.log_bytes", unit: "B"},
	{name: "wal.retained_versions", unit: "count"},
	{name: "wal.bytes_per_version", unit: "B"},
	// Go runtime over the measured window, per op.
	{name: "runtime.allocs_per_op", unit: "count"},
	{name: "runtime.gc_per_op", unit: "count"},
	{name: "runtime.gc_pause_ms_per_op", unit: "ms"},
	// Input shape, deterministic per seed.
	{name: "input.sources", unit: "count"},
	{name: "input.rows_extracted", unit: "count"},
	{name: "input.union_rows", unit: "count"},
	{name: "input.rows_wrangled", unit: "count"},
	// The tracer itself.
	{name: "trace.op_cpu_p50_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.spans", unit: "count"},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric definition fits the naming rules
// the result consumer enforces.
func validMetric(d metricDef) error {
	if !metricName.MatchString(d.name) {
		return fmt.Errorf("invalid metric name %q", d.name)
	}
	if !metricUnit.MatchString(d.unit) {
		return fmt.Errorf("metric %s: invalid unit %q", d.name, d.unit)
	}
	return nil
}

// minTail is how many samples must lie beyond a reported percentile: a
// p90 needs 100 samples, a median 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs, linearly
// interpolated between order statistics. It refuses a percentile the
// sample cannot support — fewer than minTail samples beyond it — instead
// of reporting the sample maximum under a percentile's name.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", q)
	}
	if float64(len(xs))*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, int(math.Ceil(minTail/(1-q)-1e-9)), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo]), nil
}

// median is the 0.5 quantile without the tail-support rule, for
// summaries of a few repeated measurements (set-up, layer replay).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a layer the workload never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics selects the catalogue's metrics from the measured values,
// failing when one is missing: a run never reports a partial set.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
