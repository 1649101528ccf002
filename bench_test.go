package repro

// One benchmark per experiment in the DESIGN.md index. The benchmarks run
// the same workloads as cmd/experiments at reduced scale, so `go test
// -bench=. -benchmem` regenerates every table's underlying computation and
// reports its cost. Custom metrics expose the experiment's headline
// number alongside ns/op.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wrangletest"
	"repro/wrangle"
	"repro/wrangle/synth"
)

// BenchmarkEngineParallelSources measures the engine's per-source fan-out
// on a multi-source wrangle: one synthetic product universe with many
// sources, wrangled end to end at 1/2/4/8 workers. Per-source
// extract/match/map chains dominate the run, so wall-clock should shrink
// with workers up to the machine's core count (the sequential
// select/integrate/fuse tail bounds the Amdahl ceiling). Output is
// byte-identical at every worker count; only the speed changes. `make
// bench` writes this table to BENCH_PR2.json to seed the perf trajectory.
func BenchmarkEngineParallelSources(b *testing.B) {
	// One universe shared across worker counts: Run never mutates the
	// provider, and reusing it keeps generation cost out of the loop.
	provider := wrangle.Synthetic(3, wrangle.Products, 24)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := wrangle.New(
					wrangle.WithProvider(provider),
					wrangle.WithParallelism(workers),
				)
				if err != nil {
					b.Fatal(err)
				}
				out, err := s.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() == 0 {
					b.Fatal("no wrangled rows")
				}
			}
		})
	}
}

// BenchmarkServeReads measures the serving layer's concurrent read path:
// 1/4/16 reader goroutines continuously pin the latest snapshot version
// and touch its table, stats and report, while a background writer
// refreshes sources (committing a new copy-on-write version per
// reaction). Reads are one atomic pointer load plus accessor calls — they
// never take the session lock — so throughput should hold (and scale
// with cores) regardless of the write churn. `make bench` records this
// table to BENCH_PR3.json, the PR-3 entry of the perf trajectory.
func BenchmarkServeReads(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			s, err := wrangle.New(
				wrangle.WithSeed(11),
				wrangle.WithSyntheticSources(8),
				wrangle.WithRetainVersions(3),
			)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			// The mutating session: a writer goroutine refreshes one source
			// at a time for the whole measurement window, so every read
			// races a real reaction.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				ids := s.SelectedSources()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// Best-effort: a failed refresh keeps the previous data
					// and the bench keeps reading.
					_, _ = s.Refresh(context.Background(), ids[i%len(ids)])
				}
			}()
			b.ResetTimer()
			var next atomic.Int64
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for next.Add(1) <= int64(b.N) {
						v, err := s.View()
						if err != nil {
							b.Error(err)
							return
						}
						if v.Table().Len() == 0 {
							b.Error("empty table")
							return
						}
						if v.Stats().RowsWrangled != v.Table().Len() {
							b.Error("torn version")
							return
						}
						_ = v.Report().Lines
					}
				}()
			}
			rwg.Wait()
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

func BenchmarkE1ManualVsAutomated(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E1ManualVsAutomated(1, 30)
		share = rows[0].WranglingShare
	}
	b.ReportMetric(share*100, "manual_wrangling_%")
}

func BenchmarkE2UserContexts(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E2UserContexts(1, 12)
		gap = rows[1].Recall - rows[0].Recall
	}
	b.ReportMetric(gap*100, "recall_gap_%")
}

func BenchmarkE3ContextExtraction(b *testing.B) {
	var repaired float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E3ContextExtraction(1, 6)
		repaired = rows[3].RepairedRate
	}
	b.ReportMetric(repaired*100, "auto_repaired_%")
}

func BenchmarkE4EvidenceTypes(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E4EvidenceTypes(1, 10)
		f1 = rows[3].F1
	}
	b.ReportMetric(f1, "all_evidence_F1")
}

func BenchmarkE5PayAsYouGo(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E5PayAsYouGo(1, 8, 2, 20)
		f1 = rows[len(rows)-1].ERF1
	}
	b.ReportMetric(f1, "final_ER_F1")
}

func BenchmarkE5bSharedVsSiloed(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E5bSharedVsSiloed(1, 8)
		gap = rows[3].ERF1 - rows[0].ERF1
	}
	b.ReportMetric(gap, "shared_ER_F1_gain")
}

func BenchmarkE6BoundedEvaluation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E6BoundedEvaluation([]int{10000, 100000})
		last := rows[len(rows)-1]
		ratio = float64(last.ScanWork) / float64(last.BoundedWork)
	}
	b.ReportMetric(ratio, "scan_over_bounded_work")
}

func BenchmarkE7CQApproximation(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E7CQApproximation(1, 60, 500)
		saved = float64(rows[0].ExactWork) / float64(maxInt(rows[0].ApproxWork, 1))
	}
	b.ReportMetric(saved, "exact_over_approx_work")
}

func BenchmarkE8KBCvsWrangler(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E8KBCvsWrangler(1, 15)
		gain = rows[2].PriceAcc - rows[0].PriceAcc
	}
	b.ReportMetric(gain*100, "freshness_gain_pp")
}

func BenchmarkE9Uncertainty(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E9Uncertainty(1, 300, 7)
		delta = rows[0].Brier - rows[3].Brier
	}
	b.ReportMetric(delta, "brier_improvement")
}

func BenchmarkE10Incremental(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E10Incremental(1, 8, 1)
		speedup = float64(rows[0].FullSrc) / float64(maxInt(rows[0].IncrementalSrc, 1))
	}
	b.ReportMetric(speedup, "sources_touched_ratio")
}

func BenchmarkF1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F1Architecture(1, 10)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkShardedIntegration measures the sharded integration tail in
// isolation: one wide synthetic union (24 sources) is wrangled once,
// then the select → resolve → fuse → merge tail re-runs per iteration
// (an empty refresh batch recomputes exactly the tail plus one delta
// publication) at 1/2/4/8 blocking shards. Output is byte-identical at
// every shard count — the determinism harness pins that — so the only
// thing this table may show moving is wall clock. On the 1-CPU bench
// container the fan-out cannot beat one shard (expect flat-to-slightly-
// worse from merge bookkeeping); on multi-core the resolve/fuse tasks
// overlap up to the component structure's limit. `make bench` records
// this table and BenchmarkDeltaPublish to BENCH_PR4.json.
func BenchmarkShardedIntegration(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w := wrangletest.NewWrangler(3, 24, shards)
			if _, err := w.Run(); err != nil {
				b.Fatal(err)
			}
			rows := w.Union().Len()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.RefreshSourcesContext(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "union_rows")
		})
	}
}

// BenchmarkDeltaPublish contrasts the two publication strategies over a
// wide wrangled table: "full-copy" deep-copies every record into the
// next version (a publish without shard pages), "delta" re-clones only
// one of eight shard pages and pointer-shares the other seven with the
// predecessor (the tail's publish after a one-shard reaction).
// Time and allocations per published version are the headline numbers —
// delta publication is O(changed shard), not O(table).
func BenchmarkDeltaPublish(b *testing.B) {
	const rows, pages = 4096, 8
	schema := dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "category", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
		dataset.Field{Name: "rating", Kind: dataset.KindFloat},
	)
	base := dataset.NewTable(schema)
	for i := 0; i < rows; i++ {
		base.AppendValues(
			dataset.String(fmt.Sprintf("SKU-%05d", i)),
			dataset.String(fmt.Sprintf("Product %d deluxe edition", i)),
			dataset.String("BrandCo"),
			dataset.String("gadgets"),
			dataset.Float(float64(i)*1.5),
			dataset.Float(4.2),
		)
	}
	b.Run("full-copy", func(b *testing.B) {
		store := serve.NewStore[*dataset.Table](4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Publish(base.Clone(), uint64(i), serve.OriginRefresh, time.Time{}, serve.ChangeSet{Full: true})
		}
	})
	b.Run("delta-1-of-8", func(b *testing.B) {
		store := serve.NewStore[*dataset.Table](4)
		pageLen := rows / pages
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty := i % pages
			next := dataset.NewTable(base.Schema().Clone())
			for r := 0; r < rows; r++ {
				rec := base.Row(r)
				if r/pageLen == dirty {
					rec = rec.Clone() // the changed shard republishes fresh records
				}
				next.Append(rec) // untouched shards: pointer-shared storage
			}
			store.Publish(next, uint64(i), serve.OriginRefresh, time.Time{}, serve.ChangeSet{ChangedShards: []int{dirty}, ChangedPages: 1, SharedPages: pages - 1})
		}
	})
}

// BenchmarkStreamingRefresh is the PR-5 headline: one source of a
// 24-source union churns and is refreshed, with the full sharded tail
// ("full": re-plan, re-score and re-fuse everything) versus the
// streaming partial tail ("streaming": dirty-row diff, incremental
// re-plan, cached pair scores, warm trust, per-dirty-shard fuse, page
// reuse). Output is byte-identical — the determinism harness and fuzz
// targets pin that — so the table may only show cost moving: full-tail
// cost scales with the corpus, streaming cost with the dirty shard.
// `make bench` records this and BenchmarkConcurrentAcquire to
// BENCH_PR5.json.
func BenchmarkStreamingRefresh(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		for _, mode := range []string{"full", "streaming"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				var w *core.Wrangler
				if mode == "streaming" {
					w = wrangletest.NewStreamingWrangler(3, 24, shards)
				} else {
					w = wrangletest.NewWrangler(3, 24, shards)
				}
				if _, err := w.Run(); err != nil {
					b.Fatal(err)
				}
				ids := w.SelectedSources()
				reused := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.EvolveWorld(0.1)
					stats, err := w.RefreshSource(ids[i%len(ids)])
					if err != nil {
						b.Fatal(err)
					}
					reused += stats.ShardsReused
				}
				b.ReportMetric(float64(reused)/float64(b.N), "shards_reused/op")
			})
		}
	}
}

// BenchmarkFullTail is the PR-9 headline: the cost of one full
// integration tail — union build, blocking, pair scoring, clustering,
// trust fixpoint, fusion, merge and delta publication — over the
// 24-source bench universe, with nothing dirty (an empty refresh batch
// recomputes exactly the tail). This is the allocation-squeeze target:
// interned row keys, per-row normalized feature state and preallocated
// stage buffers attack the ~4k allocs/row the PR-4/PR-5 baselines
// carried. Allocations per op are the headline number; `make bench`
// records this table and BenchmarkStreamingRefresh to BENCH_PR9.json,
// and `make bench-gate` fails the build if either regresses. The
// "sequential" row is a default session (shards 0, which means one
// shard); it keeps the name of the gated baseline row it is compared
// against, recorded when a zero shard count selected a separate
// sequential tail.
func BenchmarkFullTail(b *testing.B) {
	for _, shards := range []int{0, 1, 4, 8} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			w := wrangletest.NewWrangler(3, 24, shards)
			if _, err := w.Run(); err != nil {
				b.Fatal(err)
			}
			rows := w.Union().Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.RefreshSourcesContext(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "union_rows")
		})
	}
}

// slowProvider adds a fixed acquisition latency to every Refresh —
// the network- or disk-bound re-acquisition the ConcurrentProvider
// contract exists to overlap.
type slowProvider struct {
	wrangle.Provider
	delay time.Duration
}

func (p *slowProvider) Refresh(id string) *wrangle.Source {
	time.Sleep(p.delay)
	return p.Provider.Refresh(id)
}

// slowConcurrentProvider is slowProvider opted into concurrent
// acquisition.
type slowConcurrentProvider struct{ slowProvider }

func (p *slowConcurrentProvider) ConcurrentAcquire() bool { return true }

// BenchmarkConcurrentAcquire measures the ConcurrentProvider contract:
// an 8-source refresh batch against a provider with 2ms acquisition
// latency, serially (the base Provider contract) versus overlapped on
// the engine pool (ConcurrentAcquire). Acquisition latency is
// sleep-bound, so the concurrent path wins even on the 1-CPU bench
// container; results are byte-identical either way (pinned at the core
// layer).
func BenchmarkConcurrentAcquire(b *testing.B) {
	// A deliberately small universe keeps the integration tail cheap, so
	// the batch's acquisition latency — what this benchmark is about —
	// dominates the refresh.
	world := synth.NewWorld(9, 40, 0)
	cfg := synth.DefaultConfig(9, 8)
	cfg.MinRecords, cfg.MaxRecords = 5, 10
	base := synth.Generate(world, cfg)
	for _, mode := range []string{"serial", "concurrent"} {
		b.Run(mode, func(b *testing.B) {
			var p wrangle.Provider
			slow := slowProvider{Provider: base, delay: 2 * time.Millisecond}
			if mode == "concurrent" {
				p = &slowConcurrentProvider{slowProvider: slow}
			} else {
				p = &slow
			}
			s, err := wrangle.New(
				wrangle.WithProvider(p),
				wrangle.WithParallelism(8),
			)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Refresh(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWatchFanout is the PR-6 headline: one publisher pushing
// versions through the change feed to 1/64/1024 concurrent subscribers,
// with the payload either a full copy (every record re-sent) or a
// 1-of-8-shards delta (changed page inlined, shared pages elided — the
// shape /watch serves). Three numbers matter and are reported as custom
// metrics per sub-benchmark:
//
//   - p50/p95/p99_us: publish-to-delivery latency per subscriber event.
//   - frame_bytes: the serialised per-version frame one subscriber
//     downloads — on delta payloads it scales with the changed shard,
//     not the table.
//   - evictions: must be 0. The publisher paces itself against the
//     slowest subscriber (staying well inside the watch buffer), so a
//     non-zero count means delivery lost its non-blocking guarantee.
//
// Publish itself never blocks on subscribers by construction; the pacing
// barrier below is the benchmark keeping drain goroutines inside the
// bounded buffer so every delivery is measured, not evicted. `make
// bench` records this table to BENCH_PR6.json.
func BenchmarkWatchFanout(b *testing.B) {
	const rows, pages = 1024, 8
	schema := dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
		dataset.Field{Name: "rating", Kind: dataset.KindFloat},
	)
	base := dataset.NewTable(schema)
	for i := 0; i < rows; i++ {
		base.AppendValues(
			dataset.String(fmt.Sprintf("SKU-%05d", i)),
			dataset.String(fmt.Sprintf("Product %d deluxe edition", i)),
			dataset.String("BrandCo"),
			dataset.Float(float64(i)*1.5),
			dataset.Float(4.2),
		)
	}
	pageLen := rows / pages
	for _, subs := range []int{1, 64, 1024} {
		for _, payload := range []string{"full", "delta-1-of-8"} {
			b.Run(fmt.Sprintf("subscribers=%d/%s", subs, payload), func(b *testing.B) {
				store := serve.NewStore[*dataset.Table](4)
				store.SetWatchBuffer(256)

				// The frame one subscriber downloads per version: the
				// changed rows (all of them on full payloads) as JSON.
				// Constant across iterations, so computed outside the loop.
				frameRows := rows
				if payload != "full" {
					frameRows = pageLen
				}
				frame := dataset.NewTable(schema)
				for r := 0; r < frameRows; r++ {
					frame.Append(base.Row(r))
				}
				var buf bytes.Buffer
				if err := dataset.WriteJSON(&buf, frame); err != nil {
					b.Fatal(err)
				}
				frameBytes := buf.Len()

				var (
					wg        sync.WaitGroup
					evictions atomic.Int64
					progress  = make([]atomic.Uint64, subs) // last seq each subscriber processed
				)
				latencies := make([][]float64, subs)
				target := uint64(b.N)
				for i := 0; i < subs; i++ {
					ch, cancel, err := store.Watch(context.Background(), 0)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func(id int, ch <-chan serve.Change[*dataset.Table], cancel serve.CancelFunc) {
						defer wg.Done()
						defer cancel()
						for c := range ch {
							if c.Evicted {
								evictions.Add(1)
								return
							}
							latencies[id] = append(latencies[id], float64(time.Since(c.Version.At()).Microseconds()))
							progress[id].Store(c.Seq())
							if c.Seq() >= target {
								return
							}
						}
					}(i, ch, cancel)
				}

				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					var next *dataset.Table
					var cs serve.ChangeSet
					if payload == "full" {
						next = base.Clone()
						cs = serve.ChangeSet{Full: true}
					} else {
						dirty := i % pages
						next = dataset.NewTable(base.Schema().Clone())
						for r := 0; r < rows; r++ {
							rec := base.Row(r)
							if r/pageLen == dirty {
								rec = rec.Clone()
							}
							next.Append(rec)
						}
						cs = serve.ChangeSet{ChangedShards: []int{dirty}, ChangedPages: 1, SharedPages: pages - 1}
					}
					store.Publish(next, uint64(i), serve.OriginRefresh, time.Now(), cs)
					// Pace against the slowest subscriber every 64 versions:
					// max gap 64+128 < the 256 buffer, so nobody is evicted
					// and every delivery is measured.
					if i%64 == 0 {
						floor := uint64(0)
						if i > 128 {
							floor = uint64(i - 128)
						}
						for {
							slowest := uint64(math.MaxUint64)
							for s := range progress {
								if got := progress[s].Load(); got < slowest {
									slowest = got
								}
							}
							if slowest >= floor {
								break
							}
							runtime.Gosched()
						}
					}
				}
				wg.Wait()
				b.StopTimer()

				if n := evictions.Load(); n != 0 {
					b.Fatalf("%d subscribers evicted — delivery fell out of the bounded buffer", n)
				}
				var all []float64
				for _, l := range latencies {
					all = append(all, l...)
				}
				b.ReportMetric(quantile(all, 0.50), "p50_us")
				b.ReportMetric(quantile(all, 0.95), "p95_us")
				b.ReportMetric(quantile(all, 0.99), "p99_us")
				b.ReportMetric(float64(frameBytes), "frame_bytes")
				b.ReportMetric(0, "evictions")
			})
		}
	}
}

// quantile returns the q-th quantile of xs (nearest-rank on a sorted
// copy); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// BenchmarkMetricsOverhead prices the telemetry spine on the hottest
// path: lock-free View reads against a live session, with the registry
// disabled (the default — every instrumentation site is one nil check)
// and enabled. The disabled variant must stay within noise of
// BenchmarkServeReads/readers=1; the enabled variant bounds the cost of
// always-on scraping. `make bench` writes this table to BENCH_PR8.json.
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []wrangle.Option
	}{
		{"disabled", nil},
		{"enabled", []wrangle.Option{wrangle.WithMetrics()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := append([]wrangle.Option{
				wrangle.WithSeed(11),
				wrangle.WithSyntheticSources(4),
			}, mode.opts...)
			s, err := wrangle.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := s.View()
				if err != nil {
					b.Fatal(err)
				}
				if v.Table().Len() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkRegistryScrape prices a Prometheus scrape of a registry under
// concurrent writes — the /metrics handler's steady-state cost while the
// pipeline reacts. Four writer goroutines hammer a representative metric
// mix (counters, a labelled histogram, a gauge) for the whole window;
// each iteration renders the full text exposition.
func BenchmarkRegistryScrape(b *testing.B) {
	reg := obs.NewRegistry()
	for _, origin := range []string{"run", "feedback", "refresh"} {
		reg.Counter("wrangle_reactions_total", "origin", origin).Inc()
		reg.Histogram("wrangle_reaction_seconds", obs.DurationBuckets(), "origin", origin).Observe(0.01)
	}
	reg.Gauge("wrangle_rows").Set(1200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("wrangle_serve_reads_total")
			h := reg.Histogram("wrangle_stage_seconds", obs.DurationBuckets(), "origin", "refresh", "stage", "fuse")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%100) / 1e4)
			}
		}(w)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(buf.Len()), "scrape_bytes")
}

// trustBenchClaims builds a claim universe with `components` natural
// trust-coupled components: each component has its own source set
// conflicting over its own entities, with no source shared across
// components, so the fixpoint decomposes into exactly `components`
// independent problems.
func trustBenchClaims(components, sourcesPer, groupsPer, claimsPer int) []fusion.Claim {
	var claims []fusion.Claim
	for c := 0; c < components; c++ {
		for g := 0; g < groupsPer; g++ {
			for i := 0; i < claimsPer; i++ {
				s := (g + i) % sourcesPer
				// Three conflicting value camps per group, far enough
				// apart to land in distinct buckets at the default 1%
				// tolerance.
				v := float64(100 + 25*((g+s)%3))
				claims = append(claims, fusion.Claim{
					Entity:    fmt.Sprintf("c%02d-e%03d", c, g),
					Attribute: "price",
					Value:     dataset.Float(v),
					SourceID:  fmt.Sprintf("c%02d-s%02d", c, s),
				})
			}
		}
	}
	return claims
}

// BenchmarkTrustFixpoint measures the component-partitioned TruthFinder
// fixpoint over a universe with 8 natural components, cold and warm, at
// workers 1/2/4/8. Cold runs estimate from scratch — the worker sweep
// shows the fan-out's scaling, and workers=1 its sequential overhead
// versus the pre-partition fixpoint. Warm runs churn one source's claims
// against a memo, so only that source's component re-iterates
// (recomputed/op < components/op) — the per-component short-circuit the
// streaming tail leans on. Results are byte-identical across all
// variants; only the speed differs. `make bench` records this to
// BENCH_PR10.json and `make bench-gate` compares against it.
func BenchmarkTrustFixpoint(b *testing.B) {
	claims := trustBenchClaims(8, 12, 40, 6)
	workerCounts := []int{1, 2, 4, 8}
	for _, wk := range workerCounts {
		b.Run(fmt.Sprintf("cold/workers=%d", wk), func(b *testing.B) {
			var st fusion.TrustStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, st = fusion.EstimateTrustParallel(claims, fusion.DefaultOptions(fusion.TruthFinder), wk)
			}
			b.ReportMetric(float64(st.Components), "components/op")
		})
	}
	for _, wk := range workerCounts {
		b.Run(fmt.Sprintf("warm/workers=%d", wk), func(b *testing.B) {
			_, memo, _, _ := fusion.EstimateTrustWarmParallel(claims, fusion.DefaultOptions(fusion.TruthFinder), nil, wk)
			churned := append([]fusion.Claim(nil), claims...)
			for i := range churned {
				if churned[i].SourceID == "c00-s00" {
					churned[i].Value = dataset.Float(999)
				}
			}
			var st fusion.TrustStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _, st = fusion.EstimateTrustWarmParallel(churned, fusion.DefaultOptions(fusion.TruthFinder), memo, wk)
			}
			b.ReportMetric(float64(st.Components), "components/op")
			b.ReportMetric(float64(st.Recomputed), "recomputed/op")
		})
	}
}
