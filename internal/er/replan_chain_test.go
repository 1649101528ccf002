package er_test

import (
	"math/rand"
	"testing"

	"repro/internal/er"
	"repro/internal/wrangletest"
)

// TestChainedRePlanMatchesFresh runs the multi-round streaming property
// on one carried plan state per seed: after every re-plan the carried
// matcher features must equal a fresh Prepare row for row, and every
// round must cluster exactly as a fresh sequential resolve. The mass
// rename in round 2 must force a registry rebuild.
func TestChainedRePlanMatchesFresh(t *testing.T) {
	rebuilds := 0
	for seed := int64(0); seed < 20; seed++ {
		for _, shards := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(seed*97 + int64(shards)))
			n, err := wrangletest.CheckChainedRePlan(rng, 20+rng.Intn(100), shards, 5, er.PreparedDiff)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			rebuilds += n
		}
	}
	t.Logf("%d rounds rebuilt the carried registries", rebuilds)
	if rebuilds == 0 {
		t.Fatal("no round rebuilt the carried registries — the dead-entry rule is untested")
	}
}
