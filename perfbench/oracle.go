package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	wctx "repro/internal/context"
	"repro/internal/core"
	"repro/wrangle"
	"repro/wrangle/synth"
)

// reference is the oracle's sequential session: the configuration
// wrangle.New builds for WithProvider + WithParallelism(1) — no shards, no
// streaming — over its own copy of the workload's universe. It is built
// on core.Wrangler rather than the facade so that the layer replay can
// read its union, resolver and entity assignment afterwards.
type reference struct {
	w         *core.Wrangler
	u         *synth.Universe
	run       core.RunStats // the initial Run's stats: the input shape
	unionRows int
}

func newReference(ctx context.Context, seed int64, sz size) (*reference, error) {
	u := universe(seed, sz)
	w := core.New(u, core.ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(wrangle.ProductTaxonomy()))
	w.Parallelism = 1
	if _, err := w.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return &reference{w: w, u: u, run: w.LastStats, unionRows: w.Union().Len()}, nil
}

// apply replays one script step exactly as the workload's session saw it:
// the same world evolution, the same refresh batch, the same feedback.
func (ref *reference) apply(ctx context.Context, st step) error {
	if st.evolve {
		ref.u.World.Evolve(churn)
	}
	if len(st.refresh) > 0 {
		if _, err := ref.w.RefreshSourcesContext(ctx, st.refresh); err != nil {
			return fmt.Errorf("reference refresh: %w", err)
		}
	}
	if st.feedback != nil {
		ref.w.AddFeedback(*st.feedback)
		if _, err := ref.w.ReactToFeedbackContext(ctx); err != nil {
			return fmt.Errorf("reference feedback: %w", err)
		}
	}
	return nil
}

func (ref *reference) fingerprint() string {
	d := ref.w.Serve.Latest().Data()
	return fingerprint(d.Table, d.Trust)
}

// fingerprint hashes a published table's CSV bytes (floats in shortest
// round-trip form) and the trust map's exact float bits, so any
// difference in either is a mismatch.
func fingerprint(t *wrangle.Table, trust map[string]float64) string {
	h := sha256.New()
	if err := wrangle.WriteCSV(h, t); err != nil {
		panic(fmt.Sprintf("hashing a table cannot fail: %v", err))
	}
	keys := make([]string, 0, len(trust))
	for k := range trust {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(trust[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify replays lane l's script on a fresh reference and compares the
// lane's output with it: every op's fingerprint when the lane kept them,
// else its final state. It returns the reference, for the layer replay
// and the input shape, and one error per mismatching op.
func verify(ctx context.Context, l *lane, sz size) (*reference, []error, error) {
	ref, err := newReference(ctx, l.seed, sz)
	if err != nil {
		return nil, nil, err
	}
	for i, st := range l.steps {
		if err := ref.apply(ctx, st); err != nil {
			return nil, nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	want := ref.fingerprint()
	var mismatches []error
	for i, fp := range l.prints {
		if fp != want {
			mismatches = append(mismatches, fmt.Errorf("lane %d op %d: run output differs from the sequential reference", l.j, i))
		}
	}
	if l.prints == nil && l.final != want {
		mismatches = append(mismatches, fmt.Errorf("lane %d: final state differs from the sequential reference (%.12s vs %.12s)", l.j, l.final, want))
	}
	return ref, mismatches, nil
}
