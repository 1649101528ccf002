package wrangletest

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// CheckDeterminism is the invariant checker: it runs a default-session
// baseline and one sharded variant per shard count over byte-identical
// universes, drives all of them through the same seeded-random
// feedback/refresh script, and asserts after the initial run and after
// every step that the baseline's tail output equals the from-scratch
// reference recompute (CheckReference) and every variant fingerprints
// byte-identically to the baseline.
func CheckDeterminism(t testing.TB, seed int64, nSources, steps int, shardCounts []int) {
	t.Helper()
	ctx := context.Background()
	base := NewWrangler(seed, nSources, 0)
	if _, err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	type variant struct {
		shards int
		w      *core.Wrangler
	}
	var variants []variant
	for _, n := range shardCounts {
		w := NewWrangler(seed, nSources, n)
		if _, err := w.Run(); err != nil {
			t.Fatalf("sharded(%d) run: %v", n, err)
		}
		variants = append(variants, variant{shards: n, w: w})
	}
	compare := func(stage string) {
		t.Helper()
		checkBaseline(t, base, stage)
		want := Fingerprint(base)
		for _, v := range variants {
			if got := Fingerprint(v.w); got != want {
				t.Fatalf("shards=%d diverged from the baseline at %s:\n%s",
					v.shards, stage, firstDiff(want, got))
			}
		}
	}
	compare("initial run")

	rng := rand.New(rand.NewSource(seed*7919 + 13))
	for _, step := range Script(rng, base, steps) {
		_, refErr, err := step.Apply(ctx, base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", step.Name, err)
		}
		for _, v := range variants {
			_, vErr, err := step.Apply(ctx, v.w)
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", step.Name, v.shards, err)
			}
			if vErr != refErr {
				t.Fatalf("%s: shards=%d error diverged:\nbaseline: %q\nsharded:  %q",
					step.Name, v.shards, refErr, vErr)
			}
		}
		compare(step.Name)
	}
}

// CheckStreamingDeterminism is the streaming acceptance property: a
// default full-tail baseline, checked against the reference recompute
// after every step, and one streaming variant per shard count run
// byte-identical universes through the same seeded-random
// feedback/refresh script, and every variant must fingerprint
// identically to the baseline after every step — while recomputing only
// its dirty shards. It returns the total shards reused across all
// variants and steps, so callers can additionally assert the partial
// tail actually engaged (a streaming path that silently fell back to
// full recompute would pass the identity check vacuously).
func CheckStreamingDeterminism(t testing.TB, seed int64, nSources, steps int, shardCounts []int) int {
	t.Helper()
	ctx := context.Background()
	base := NewWrangler(seed, nSources, 0)
	if _, err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	type variant struct {
		shards int
		w      *core.Wrangler
	}
	var variants []variant
	for _, n := range shardCounts {
		w := NewStreamingWrangler(seed, nSources, n)
		if _, err := w.Run(); err != nil {
			t.Fatalf("streaming(%d) run: %v", n, err)
		}
		variants = append(variants, variant{shards: n, w: w})
	}
	compare := func(stage string) {
		t.Helper()
		checkBaseline(t, base, stage)
		want := Fingerprint(base)
		for _, v := range variants {
			if got := Fingerprint(v.w); got != want {
				t.Fatalf("streaming shards=%d diverged from full tail at %s:\n%s",
					v.shards, stage, firstDiff(want, got))
			}
		}
	}
	compare("initial run")

	reused := 0
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	for _, step := range Script(rng, base, steps) {
		_, refErr, err := step.Apply(ctx, base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", step.Name, err)
		}
		for _, v := range variants {
			stats, vErr, err := step.Apply(ctx, v.w)
			if err != nil {
				t.Fatalf("%s: streaming shards=%d: %v", step.Name, v.shards, err)
			}
			if vErr != refErr {
				t.Fatalf("%s: streaming shards=%d error diverged:\nfull:      %q\nstreaming: %q",
					step.Name, v.shards, refErr, vErr)
			}
			reused += stats.ShardsReused
		}
		compare(step.Name)
	}
	return reused
}

// CheckParallelTrustDeterminism extends the streaming acceptance property
// across the trust fixpoint's worker fan-out: a default full-tail
// baseline at workers=1 (so the trust stage runs the sequential
// per-component reference), checked against the reference recompute
// after every step, against one streaming variant per (workers × shards)
// pair, all pushed through the same seeded script.
// Every variant must fingerprint identically to the baseline after every
// step — pinning that the component fan-out is byte-identical at every
// worker count while the warm path adopts unchanged components. It
// returns the total trust components adopted from the memo across all
// variants and steps, so callers can assert the per-component
// short-circuit actually engaged.
func CheckParallelTrustDeterminism(t testing.TB, seed int64, nSources, steps int, workerCounts, shardCounts []int) int {
	t.Helper()
	ctx := context.Background()
	base := NewWrangler(seed, nSources, 0)
	base.Parallelism = 1
	if _, err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	type variant struct {
		workers, shards int
		w               *core.Wrangler
	}
	var variants []variant
	for _, wk := range workerCounts {
		for _, n := range shardCounts {
			w := NewStreamingWrangler(seed, nSources, n)
			w.Parallelism = wk
			if _, err := w.Run(); err != nil {
				t.Fatalf("workers=%d shards=%d run: %v", wk, n, err)
			}
			variants = append(variants, variant{workers: wk, shards: n, w: w})
		}
	}
	compare := func(stage string) {
		t.Helper()
		checkBaseline(t, base, stage)
		want := Fingerprint(base)
		for _, v := range variants {
			if got := Fingerprint(v.w); got != want {
				t.Fatalf("workers=%d shards=%d diverged from the full-tail baseline at %s:\n%s",
					v.workers, v.shards, stage, firstDiff(want, got))
			}
		}
	}
	compare("initial run")

	trustAdopted := 0
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	for _, step := range Script(rng, base, steps) {
		_, refErr, err := step.Apply(ctx, base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", step.Name, err)
		}
		for _, v := range variants {
			stats, vErr, err := step.Apply(ctx, v.w)
			if err != nil {
				t.Fatalf("%s: workers=%d shards=%d: %v", step.Name, v.workers, v.shards, err)
			}
			if vErr != refErr {
				t.Fatalf("%s: workers=%d shards=%d error diverged:\nfull:     %q\nvariant:  %q",
					step.Name, v.workers, v.shards, refErr, vErr)
			}
			if stats.TrustRecomputed > stats.TrustComponents {
				t.Fatalf("%s: workers=%d shards=%d recomputed %d of %d trust components",
					step.Name, v.workers, v.shards, stats.TrustRecomputed, stats.TrustComponents)
			}
			trustAdopted += stats.TrustComponents - stats.TrustRecomputed
		}
		compare(step.Name)
	}
	return trustAdopted
}

// checkBaseline fails the test when the baseline's tail output has
// drifted from the from-scratch reference recompute.
func checkBaseline(t testing.TB, base *core.Wrangler, stage string) {
	t.Helper()
	if err := CheckReference(base); err != nil {
		t.Fatalf("baseline at %s: %v", stage, err)
	}
}
