package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

// coldRun: back-to-back New+Run of a fresh default session. The
// per-source extract/match/map chains fan out; the tail is sequential.
// No streaming memo or durable log is involved, so this is the control
// for tail and serve optimisations and the target for extraction and
// engine ones. Each op's session gets one watcher (subscribed before
// Run), whose delivery of version 1 gives the op's freshness.
func coldRun(ctx context.Context, r *runner) error {
	opts := func(p wrangle.Provider) []wrangle.Option {
		return []wrangle.Option{wrangle.WithProvider(p), wrangle.WithParallelism(r.cfg.workers)}
	}
	r.options = []string{"WithProvider(synthetic)", fmt.Sprintf("WithParallelism(%d)", r.cfg.workers)}
	err := r.setup(func(l *lane) error {
		// A warm-up run lets lazy initialisation finish before timing.
		s, err := wrangle.New(opts(l.u)...)
		if err != nil {
			return err
		}
		_, err = s.Run(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var last *wrangle.View
	r.measure(func(l *lane, rec *opRecord) error {
		rec.kind = "run"
		rec.start = time.Now()
		s, err := wrangle.New(opts(l.p)...)
		if err != nil {
			return err
		}
		t1 := time.Now()
		w, err := watch(ctx, s, 0)
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		defer w.stop()
		w.frames.Store(rec.traced)
		t2 := time.Now()
		if _, err := s.Run(ctx); err != nil {
			return err
		}
		rec.latency = time.Since(rec.start)
		rec.span("session.new", rec.start, t1)
		rec.span("serve.subscribe", t1, t2)
		rec.span("session.run", t2, rec.start.Add(rec.latency))
		v, err := s.View()
		if err != nil {
			return err
		}
		st := v.Stats()
		rec.version = v.Version()
		rec.stages = st.Stages
		rec.runWall = st.Duration
		rec.trustComponents, rec.trustRecomputed = st.TrustComponents, st.TrustRecomputed
		l.s, last = s, v
		return r.await(w, rec)
	}, func(l *lane, rec *opRecord) {
		l.prints = append(l.prints, fingerprint(last.Table(), last.Trust()))
	})
	return r.finish(ctx, nil)
}

// refreshStream: per lane, one long-lived sharded streaming session on
// a union about twice the default size, with one watcher draining every
// version. Three of four ops evolve the world and refresh one source
// (round-robin); the fourth pays value feedback on a supported price.
// Refresh re-extracts and diffs rows, feedback re-fuses: both drive the
// integration tail, differently.
func refreshStream(ctx context.Context, r *runner) error {
	const shards, retain = 4, 8
	r.options = []string{"WithProvider(synthetic)", fmt.Sprintf("WithParallelism(%d)", r.cfg.workers),
		fmt.Sprintf("WithIntegrationShards(%d)", shards), "WithStreamingRefresh()", fmt.Sprintf("WithRetainVersions(%d)", retain)}
	err := r.setup(func(l *lane) error {
		s, err := wrangle.New(wrangle.WithProvider(l.p), wrangle.WithParallelism(r.cfg.workers),
			wrangle.WithIntegrationShards(shards), wrangle.WithStreamingRefresh(), wrangle.WithRetainVersions(retain))
		if err != nil {
			return err
		}
		if _, err := s.Run(ctx); err != nil {
			return err
		}
		l.s = s
		v, err := s.View()
		if err != nil {
			return err
		}
		l.ids = s.SelectedSources()
		l.lines = priceLines(s, l.u.World)
		if len(l.ids) == 0 || len(l.lines) == 0 {
			return fmt.Errorf("nothing to refresh or annotate")
		}
		if l.w, err = watch(ctx, s, v.Version()); err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.measure(func(l *lane, rec *opRecord) error {
		var st wrangle.ReactStats
		var err error
		l.w.frames.Store(rec.traced)
		if rec.j%4 == 3 {
			rec.kind = "feedback"
			item := verdict(l.lines[r.rng.Intn(len(l.lines))], l.u.World, r.rng.Intn)
			l.steps = append(l.steps, step{feedback: &item})
			rec.start = time.Now()
			st, err = l.s.ApplyFeedback(ctx, item)
		} else {
			rec.kind = "refresh"
			l.u.World.Evolve(churn)
			// The lane's k-th refresh: ops j%4 == 3 were feedback.
			k := rec.j - rec.j/4
			id := l.ids[k%len(l.ids)]
			l.steps = append(l.steps, step{evolve: true, refresh: []string{id}})
			rec.start = time.Now()
			st, err = l.s.Refresh(ctx, id)
		}
		rec.latency = time.Since(rec.start)
		if err != nil {
			return err
		}
		rec.noteReact(st)
		v, err := l.s.View()
		if err != nil {
			return err
		}
		rec.version = v.Version()
		return r.await(l.w, rec)
	}, nil)
	return r.finish(ctx, nil)
}

// restart: per lane, a durable sharded streaming session on the default
// universe. Set-up runs it cold and reacts until its log has compacted
// several times. Each op closes the session, reopens it from the log —
// which must restore — and publishes one single-source refresh; op
// latency is reopen until that reaction is published. No source is
// extracted during the restore, which isolates the log replay and
// rehydration cost.
func restart(ctx context.Context, r *runner) error {
	const shards = 4
	base := filepath.Join(r.cfg.dir, "tmp", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(base)
	opts := func(l *lane) []wrangle.Option {
		return []wrangle.Option{wrangle.WithProvider(l.p), wrangle.WithParallelism(r.cfg.workers),
			wrangle.WithIntegrationShards(shards), wrangle.WithStreamingRefresh(), wrangle.WithDurableLog(l.dir)}
	}
	r.options = []string{"WithProvider(synthetic)", fmt.Sprintf("WithParallelism(%d)", r.cfg.workers),
		fmt.Sprintf("WithIntegrationShards(%d)", shards), "WithStreamingRefresh()", "WithDurableLog(dir)", "FsyncOnCheckpoint"}
	// refresh evolves the lane's world and queues one round-robin source
	// refresh in its script, returning the source.
	refresh := func(l *lane, k int) string {
		l.u.World.Evolve(churn)
		id := l.ids[(l.off+k)%len(l.ids)]
		l.steps = append(l.steps, step{evolve: true, refresh: []string{id}})
		return id
	}
	err := r.setup(func(l *lane) error {
		l.dir = filepath.Join(base, strconv.Itoa(l.j))
		s, err := wrangle.New(opts(l)...)
		if err != nil {
			return err
		}
		l.s = s
		if _, err := s.Run(ctx); err != nil {
			return err
		}
		if l.ids = s.SelectedSources(); len(l.ids) == 0 {
			return fmt.Errorf("nothing selected")
		}
		compactions, last := 0, uint64(0)
		for k := 0; compactions < r.cfg.size.compactions; k++ {
			if _, err := s.Refresh(ctx, refresh(l, k)); err != nil {
				return err
			}
			d, _ := s.Durability()
			if d.LastCheckpointSeq != last {
				compactions++
				last = d.LastCheckpointSeq
			}
		}
		l.off = len(l.steps)
		return nil
	})
	if err != nil {
		return err
	}
	r.measure(func(l *lane, rec *opRecord) error {
		rec.kind = "restart"
		c0 := time.Now()
		err := l.s.Close()
		rec.close = time.Since(c0)
		rec.span("durable.close", c0, c0.Add(rec.close))
		if err != nil {
			return fmt.Errorf("close: %w", err)
		}
		// Sources change while the process is down.
		id := refresh(l, rec.j)
		rec.start = time.Now()
		s, err := wrangle.New(opts(l)...)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		l.s = s
		t1 := time.Now()
		rec.restore = t1.Sub(rec.start)
		if !s.Restored() {
			return fmt.Errorf("reopen did not restore from the log")
		}
		v, err := s.View()
		if err != nil {
			return err
		}
		d0, _ := s.Durability()
		w, err := watch(ctx, s, v.Version())
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		defer w.stop()
		w.frames.Store(rec.traced)
		t2 := time.Now()
		st, err := s.Refresh(ctx, id)
		rec.latency = time.Since(rec.start)
		rec.firstReact = rec.start.Add(rec.latency).Sub(t2)
		rec.span("durable.restore", rec.start, t1)
		rec.span("serve.subscribe", t1, t2)
		rec.span("durable.first_react", t2, rec.start.Add(rec.latency))
		if err != nil {
			return err
		}
		rec.noteReact(st)
		d1, _ := s.Durability()
		rec.walGrowth = d1.Bytes - d0.Bytes
		if v, err = s.View(); err != nil {
			return err
		}
		rec.version = v.Version()
		return r.await(w, rec)
	}, nil)
	var checkpoints, logBytes, retained []float64
	return r.finish(ctx, func(l *lane) error {
		start := time.Now()
		if err := l.s.Checkpoint(); err != nil {
			l.s.Close() // the checkpoint error is the one to report
			return fmt.Errorf("checkpoint: %w", err)
		}
		checkpoints = append(checkpoints, ms(time.Since(start)))
		d, _ := l.s.Durability()
		logBytes = append(logBytes, float64(d.Bytes))
		retained = append(retained, float64(d.RetainedVersions))
		r.values["durable.checkpoint_ms"] = median(checkpoints)
		r.values["wal.log_bytes"] = median(logBytes)
		r.values["wal.retained_versions"] = median(retained)
		if err := l.s.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		return nil
	})
}

// priceLines are the fused price lines of s that name a product of the
// world and have a supporting source: the values a user can judge.
func priceLines(s *wrangle.Session, world *synth.World) []wrangle.ReportLine {
	var out []wrangle.ReportLine
	for _, l := range s.Report("feedback", "price").Lines {
		if len(l.Supporters) > 0 && world.Product(l.Entity) != nil {
			out = append(out, l)
		}
	}
	return out
}

// verdict is the feedback a truthful user pays on line l: whether its
// fused price is within 1% of the product's current price, attributed to
// one of its supporting sources.
func verdict(l wrangle.ReportLine, world *synth.World, intn func(int) int) wrangle.Feedback {
	kind := wrangle.ValueIncorrect
	if v, err := strconv.ParseFloat(l.Value, 64); err == nil {
		truth := world.Product(l.Entity).Price
		if d := v - truth; d <= 0.01*truth && d >= -0.01*truth {
			kind = wrangle.ValueCorrect
		}
	}
	return wrangle.Feedback{Kind: kind, SourceID: l.Supporters[intn(len(l.Supporters))],
		Entity: l.Entity, Attribute: l.Attribute, Cost: 0.1}
}
