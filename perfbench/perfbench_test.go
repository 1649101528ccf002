package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestPercentileRefusesUnsupportedSample(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true},
		{999, 0.99, false}, {1000, 0.99, true}, {100, 0, false}, {100, 1, false},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, q=%g): err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
		}
	}
	if got, _ := percentile(seq(100), 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1 (interpolated)", got)
	}
	if got, _ := percentile(seq(21), 0.5); got != 11 {
		t.Errorf("p50 of 1..21 = %v, want 11", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validMetric(d); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []metricDef{{name: "_x", unit: "ms"}, {name: "a b", unit: "ms"}, {name: "ok", unit: "µs"},
		{name: "ok", unit: ""}, {name: strings.Repeat("x", 65), unit: "ms"}} {
		if validMetric(bad) == nil {
			t.Errorf("validMetric(%+v) accepted an invalid metric", bad)
		}
	}
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON pins the emitted metric and workload
// sets to the benchmark's manifest.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
		if _, ok := sizes[name]; !ok {
			t.Errorf("workload %s has no size", name)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[d.higher]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark reports %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = true
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s has %g)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadSmoke runs every workload at tiny size, untraced and
// traced: the oracle must pass and the result must carry exactly the
// catalogue's metrics.
func TestWorkloadSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, trace: traced, size: tinySize, dir: t.TempDir(), workers: 2}
			res, meta, err := execute(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < tinySize.minOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, traced, d.name, m)
				}
			}
			if !traced && (res.Metrics["op_cpu_p50_ms"].Value <= 0 || res.Metrics["entity_f1"].Value <= 0) {
				t.Errorf("%s: zero end-to-end metrics %v", name, res.Metrics)
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go", "seed", "options", "input"} {
				if _, ok := meta[k]; !ok {
					t.Errorf("%s: metadata lacks %s", name, k)
				}
			}
		}
	}
}

// TestOracleFlagsMismatch: a final state that differs from the
// reference's is reported as a mismatch.
func TestOracleFlagsMismatch(t *testing.T) {
	l := &lane{seed: 7, final: "0000000000000000"}
	_, mismatches, err := verify(context.Background(), l, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 1 {
		t.Fatalf("got %d mismatches, want 1", len(mismatches))
	}
	l.final = ""
	l.prints = []string{"0", "1"}
	if _, mismatches, _ = verify(context.Background(), l, tinySize); len(mismatches) != 2 {
		t.Fatalf("got %d per-op mismatches, want 2", len(mismatches))
	}
}
