package fusion

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// allocClaims is a fixed claim set of 4 trust-coupled components, each
// 30 groups × 5 claims over 6 sources with three value camps per group.
// churn moves every claim of one source in component 0.
func allocClaims(churn bool) []Claim {
	var claims []Claim
	for c := 0; c < 4; c++ {
		for g := 0; g < 30; g++ {
			for i := 0; i < 5; i++ {
				s := (g + i) % 6
				v := dataset.Float(float64(100 + 25*((g+s)%3)))
				if churn && c == 0 && s == 1 {
					v = dataset.Float(999)
				}
				claims = append(claims, Claim{
					Entity:    fmt.Sprintf("c%d-e%02d", c, g),
					Attribute: "price",
					Value:     v,
					SourceID:  fmt.Sprintf("c%d-s%d", c, s),
				})
			}
		}
	}
	return claims
}

// TestWarmFusionAllocs pins the allocation behaviour of one warm
// reaction's fusion: Groups.EstimateTrustWarm against the memo of the
// unchurned claim set, then Groups.Fuse over every group. The churned
// component's groups are re-prepared and that component alone
// re-iterates; the fixpoint and the fuse allocate nothing per group or
// per iteration, so a regression that brings back per-iteration sorting
// or per-group bucketing overshoots the ceiling.
func TestWarmFusionAllocs(t *testing.T) {
	base := GroupClaims(allocClaims(false))
	_, memo, _, _ := base.EstimateTrustWarm(DefaultOptions(TruthFinder), nil, 1)
	g := GroupClaims(allocClaims(true))
	var st TrustStats
	got := testing.AllocsPerRun(20, func() {
		var opts Options
		opts, _, _, st = g.EstimateTrustWarm(DefaultOptions(TruthFinder), memo, 1)
		_ = g.Fuse(g.Keys, opts)
	})
	if st.Components != 4 || st.Recomputed != 1 {
		t.Fatalf("warm stats %+v, want 4 components with 1 recomputed", st)
	}
	t.Logf("warm EstimateTrustWarm + Fuse: %.0f allocs/op (%d groups prepared)", got, st.GroupsPrepared)
	// Measured at 465 allocs/op: per prepared group its struct, one int32
	// slab, its bucket texts and the numeric representatives' formatted
	// values; per component its slices as they grow; per call a fixed
	// handful. The sort-and-bucketize kernel this replaced measured 4095
	// on the same set. The ceiling leaves ~1.2x headroom.
	const ceiling = 560
	if got > ceiling {
		t.Errorf("warm EstimateTrustWarm + Fuse = %.0f allocs/op, want <= %d", got, ceiling)
	}
}
