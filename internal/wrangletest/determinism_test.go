package wrangletest

import (
	"math/rand"
	"testing"
)

// shardCounts is the matrix the ISSUE pins: a degenerate single shard,
// and 2/4/8-way fan-outs.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedPipelineMatchesSequential is the acceptance property: for
// randomized universes and randomized feedback/refresh interleavings,
// the default session's tail output equals the from-scratch reference
// recompute (whole-union resolve and fuse), and the tail at shard counts
// 1/2/4/8 is byte-identical to the default session — table, fused
// results, report, trust, clustering and provenance — after the initial
// run and after every reaction.
func TestShardedPipelineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline determinism sweep is not -short")
	}
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			t.Parallel()
			CheckDeterminism(t, seed, 6, 5, shardCounts)
		})
	}
}

// TestStreamingPipelineMatchesFullTail is the streaming acceptance
// property: for randomized universes and randomized feedback/refresh
// interleavings, a streaming session — which re-resolves and re-fuses
// only the shards each reaction dirtied — is byte-identical to the
// full-tail baseline (itself checked against the reference recompute)
// at shard counts 1/2/4/8, after the initial run and after every
// reaction. The reuse total must be positive
// across the sweep: a streaming path that silently fell back to full
// recompute would pass the identity check without testing anything.
func TestStreamingPipelineMatchesFullTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline determinism sweep is not -short")
	}
	reused := 0
	for _, seed := range []int64{3, 17} {
		reused += CheckStreamingDeterminism(t, seed, 6, 5, shardCounts)
	}
	if reused == 0 {
		t.Fatal("streaming sweep never reused a shard — the partial tail did not engage")
	}
}

// TestParallelTrustPipelineMatchesFullTail extends the streaming sweep
// across the trust fixpoint's worker fan-out: streaming sessions at
// workers 1/2/4/8 × shards 1/4 must stay byte-identical to a one-worker
// full-tail baseline (itself checked against the reference recompute)
// after the initial run and
// after every reaction. The adopted-component total must be positive
// across the sweep: a warm path that silently recomputed every component
// would pass the identity check without testing the short-circuit.
func TestParallelTrustPipelineMatchesFullTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline determinism sweep is not -short")
	}
	adopted := 0
	for _, seed := range []int64{5, 23} {
		adopted += CheckParallelTrustDeterminism(t, seed, 6, 4, []int{1, 2, 4, 8}, []int{1, 4})
	}
	if adopted == 0 {
		t.Fatal("parallel trust sweep never adopted a memoized component — the per-component short-circuit did not engage")
	}
}

// TestStreamingRePlanMatchesFresh drives the er-layer streaming property
// over many seeded random tables and mutation scripts: memoize a
// resolved plan, mutate the table, and the incremental re-plan (dirty
// rows re-blocked, untouched shards' clusters translated by reference)
// must reproduce the fresh plan + full resolve exactly.
func TestStreamingRePlanMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		rows := 2 + rng.Intn(120)
		for _, n := range shardCounts {
			if err := CheckStreamingRePlan(rng, rows, n); err != nil {
				t.Fatalf("seed %d rows %d shards %d: %v", seed, rows, n, err)
			}
		}
	}
}

// TestShardedResolveMatchesSequential drives the er-layer property over
// many seeded random tables and constraint sets: plan + per-shard
// resolve + merge reproduces the sequential constrained clustering
// exactly. This is the fast inner loop of the harness (no pipeline, no
// universe), so it can afford hundreds of cases per run.
func TestShardedResolveMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := RandomTable(rng, 2+rng.Intn(150))
		must, cannot := RandomConstraints(rng, tab.Len())
		for _, n := range shardCounts {
			if err := CheckShardedResolve(tab, n, must, cannot); err != nil {
				t.Fatalf("seed %d rows %d: %v", seed, tab.Len(), err)
			}
		}
	}
}

// TestShardedResolveEmptyAndTiny pins the degenerate shapes: an empty
// table, a single row, fewer rows than shards.
func TestShardedResolveEmptyAndTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, rows := range []int{0, 1, 2, 3} {
		tab := RandomTable(rng, rows)
		for _, n := range shardCounts {
			if rows == 0 {
				continue // ResolveConstrained short-circuits; nothing to shard
			}
			if err := CheckShardedResolve(tab, n, nil, nil); err != nil {
				t.Fatalf("rows=%d shards=%d: %v", rows, n, err)
			}
		}
	}
}
