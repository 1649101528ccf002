package wrangle_test

import (
	"context"
	"testing"

	"repro/wrangle"
)

func TestWithStreamingRefreshValidation(t *testing.T) {
	if _, err := wrangle.New(wrangle.WithStreamingRefresh()); err != nil {
		t.Errorf("WithStreamingRefresh without WithIntegrationShards rejected: %v", err)
	}
	if _, err := wrangle.New(wrangle.WithStreamingRefresh(), wrangle.WithIntegrationShards(4)); err != nil {
		t.Errorf("WithStreamingRefresh + shards rejected: %v", err)
	}
	// Option order must not matter.
	if _, err := wrangle.New(wrangle.WithIntegrationShards(2), wrangle.WithStreamingRefresh()); err != nil {
		t.Errorf("option order sensitivity: %v", err)
	}
}

// TestStreamingSessionByteIdentical is the facade-level identity check:
// the same universe wrangled with a full-tail session and a streaming
// session serves byte-identical tables, reports and trust after the run
// and after feedback + refresh round-trips — while the streaming session
// reports shard reuse.
func TestStreamingSessionByteIdentical(t *testing.T) {
	drive := func(t *testing.T, streaming bool) (string, wrangle.ReactStats) {
		t.Helper()
		opts := []wrangle.Option{
			wrangle.WithSeed(21), wrangle.WithSyntheticSources(6),
			wrangle.WithIntegrationShards(4),
		}
		if streaming {
			opts = append(opts, wrangle.WithStreamingRefresh())
		}
		s, err := wrangle.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Run(ctx); err != nil {
			t.Fatal(err)
		}
		ids := s.SelectedSources()
		if _, err := s.ApplyFeedback(ctx, wrangle.Feedback{
			Kind: wrangle.SourceRelevant, SourceID: ids[0], Worker: "expert", Cost: 0.2,
		}); err != nil {
			t.Fatal(err)
		}
		stats, err := s.Refresh(ctx, ids[1])
		if err != nil {
			t.Fatal(err)
		}
		return sessionFingerprint(t, s), stats
	}
	full, fullStats := drive(t, false)
	stream, streamStats := drive(t, true)
	if full != stream {
		t.Error("streaming session diverged from the full-tail session")
	}
	if fullStats.ShardsResolved != 4 {
		t.Errorf("full-tail refresh should resolve all 4 shards, got %+v", fullStats)
	}
	if streamStats.ShardsResolved+streamStats.ShardsReused != 4 {
		t.Errorf("streaming refresh shard split inconsistent: %+v", streamStats)
	}
}
