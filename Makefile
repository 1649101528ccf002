# Mirrors the tier-1 verify command and CI. Plain `go` invocations work
# identically; this is convenience only.

GO ?= go

.PHONY: check build vet test race bench bench-gate fuzz loadtest

check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench prints the experiment benchmark suite (E1-E10, F1), then records
# the engine scaling benchmark (1/2/4/8 workers over a 24-source universe)
# as test2json events in BENCH_PR2.json, the serving-layer read
# throughput (1/4/16 concurrent readers against a mutating session) in
# BENCH_PR3.json, the sharded integration tail (1/2/4/8 blocking
# shards) plus delta-vs-full publication in BENCH_PR4.json, and the
# concurrent source acquisition in BENCH_PR5.json, and the
# change-feed fan-out (1/64/1024 subscribers, full vs delta frames, with
# p50/p95/p99 delivery latency and frame bytes) in BENCH_PR6.json, and
# the durable-log cold-vs-warm start (full pipeline run vs log replay +
# first one-source reaction over a 24-source universe) in
# BENCH_PR7.json, and the telemetry overhead (disabled-vs-enabled
# metrics on the hot read path, plus /metrics scrape cost under
# concurrent writes) in BENCH_PR8.json, and the allocation-squeeze
# headline — one full integration tail (sequential and 1/4/8 shards)
# plus the streaming refresh it subsumed from the PR5 line — in
# BENCH_PR9.json, and the component-partitioned trust fixpoint (cold +
# warm at 1/2/4/8 workers over an 8-component universe) in
# BENCH_PR10.json — the PR-over-PR perf trajectory. The patterns are
# disjoint so nothing runs twice. Each
# BENCH file is benchstat-comparable: `go run ./cmd/benchgate -dump
# BENCH_PR3.json > old.txt` converts the test2json stream to the plain
# text benchstat consumes.
bench:
	$(GO) test -bench='^Benchmark(E[0-9]|F1)' -benchmem -run=^$$ .
	$(GO) test -bench=BenchmarkEngineParallelSources -benchmem -run=^$$ -json . > BENCH_PR2.json
	$(GO) test -bench=BenchmarkServeReads -benchmem -run=^$$ -json . > BENCH_PR3.json
	$(GO) test -bench='^Benchmark(ShardedIntegration|DeltaPublish)$$' -benchmem -run=^$$ -json . > BENCH_PR4.json
	$(GO) test -bench=BenchmarkConcurrentAcquire -benchmem -run=^$$ -json . > BENCH_PR5.json
	$(GO) test -bench=BenchmarkWatchFanout -benchmem -run=^$$ -json . > BENCH_PR6.json
	$(GO) test -bench=BenchmarkColdVsWarmStart -benchmem -run=^$$ -json . > BENCH_PR7.json
	$(GO) test -bench='^Benchmark(MetricsOverhead|RegistryScrape)$$' -benchmem -run=^$$ -json . > BENCH_PR8.json
	$(GO) test -bench='^Benchmark(FullTail|StreamingRefresh)$$' -benchmem -run=^$$ -json . > BENCH_PR9.json
	$(GO) test -bench=BenchmarkTrustFixpoint -benchmem -run=^$$ -json . > BENCH_PR10.json

# bench-gate is the perf-trend gate CI runs: a fresh multi-sample run of
# the serving-layer, telemetry, full-tail and trust-fixpoint benchmarks,
# compared against the committed BENCH_*.json trajectory by cmd/benchgate.
# Fails on a significant regression (slower than baseline × 1.5 on every
# sample, or allocs/op above baseline × 1.15). Profiles land in
# bench.cpu.pprof / bench.mem.pprof for inspection; BENCH_GATE_NEW.json
# is the gate run's own output (fresh samples, not a committed baseline —
# safe to delete, never check it in).
bench-gate:
	$(GO) test -bench='^Benchmark(ServeReads|MetricsOverhead|RegistryScrape|FullTail|TrustFixpoint)$$' -benchmem -count=5 -run=^$$ \
		-cpuprofile bench.cpu.pprof -memprofile bench.mem.pprof -json . > BENCH_GATE_NEW.json
	$(GO) run ./cmd/benchgate -new BENCH_GATE_NEW.json \
		-baseline BENCH_PR3.json -baseline BENCH_PR8.json -baseline BENCH_PR9.json -baseline BENCH_PR10.json \
		-match '^Benchmark(ServeReads|MetricsOverhead|RegistryScrape|FullTail|TrustFixpoint)'

# loadtest drives the change-feed load harness in its CI smoke shape:
# 100 concurrent subscribers against 5 seconds of continuous
# refresh/feedback churn. It exits non-zero if any stream gapped, a
# draining subscriber was evicted, or nothing was delivered. Longer
# local sessions: go run ./cmd/watchload -subscribers 5000 -duration 60s.
loadtest:
	$(GO) run ./cmd/watchload -smoke

# fuzz runs the equivalence fuzzers briefly — the same smokes CI runs:
# the sharded-resolve identity, the end-to-end streaming-refresh
# identity, the change-feed resume property (no duplicate, out-of-order
# or torn deliveries across arbitrary publish/subscribe/drain/cancel
# interleavings), the WAL replay property (arbitrary bytes never
# panic the reader, corruption is detected, the healed log stays
# appendable), and the fusion kernel against its frozen reference.
# Longer local sessions: go test -fuzz=FuzzSharded -fuzztime=5m
# ./internal/wrangletest (or -fuzz=FuzzStreamingRefresh,
# -fuzz=FuzzWatchResume ./internal/serve, -fuzz=FuzzWALReplay
# ./internal/wal, -fuzz=FuzzFusionKernel ./internal/fusion).
fuzz:
	$(GO) test -fuzz=FuzzSharded -fuzztime=10s -run=^$$ ./internal/wrangletest
	$(GO) test -fuzz=FuzzStreamingRefresh -fuzztime=10s -run=^$$ ./internal/wrangletest
	$(GO) test -fuzz=FuzzWatchResume -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -run=^$$ ./internal/wal
	$(GO) test -fuzz=FuzzFusionKernel -fuzztime=10s -run=^$$ ./internal/fusion
