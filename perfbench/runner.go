package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

// size is a workload's input scale and how much it measures.
type size struct {
	products, sources, minRecords, maxRecords int
	// lanes is how many independent universes, each with its own
	// session(s), a run interleaves its ops over (round-robin). The
	// metrics then describe a mix of inputs, so they move little from
	// one seed to the next; every lane is set up once and setup_s is the
	// median over lanes.
	lanes int
	// minOps is the sample floor of the measured window: 100 ops support
	// a p90 (percentile's minTail). The window ends once it has lasted
	// the requested seconds and holds minOps ops.
	minOps int
	// compactions is how many durable-log compactions the restart
	// workload's set-up reacts through before measuring.
	compactions int
	// replayReps repeats every layer-replay call; the median is reported.
	replayReps int
}

// shapeSeed fixes each universe's structure — which sources exist, their
// formats, record counts and error profile — so that seeds vary the
// content (products, names, prices, churn and the op script) while the
// input size stays the same from seed to seed.
const shapeSeed = 3

// defaultUniverse is the repo's default-size product universe: 24
// sources of 30–120 records over a 200-product world.
var defaultUniverse = size{products: 200, sources: 24, minRecords: 30, maxRecords: 120,
	minOps: 100, compactions: 2, replayReps: 3}

var sizes = map[string]size{
	"cold-run": withLanes(defaultUniverse, 8),
	// Twice the default union: 24 sources of 65–160 records over a
	// 1500-product world.
	"refresh-stream": {products: 1500, sources: 24, minRecords: 65, maxRecords: 160,
		lanes: 4, minOps: 100, replayReps: 3},
	"restart": withLanes(defaultUniverse, 4),
}

func withLanes(sz size, n int) size {
	sz.lanes = n
	return sz
}

// tinySize is the smoke-test scale: every path runs, in milliseconds.
var tinySize = size{products: 30, sources: 4, minRecords: 5, maxRecords: 10,
	lanes: 2, minOps: 100, compactions: 1, replayReps: 1}

func universe(seed int64, sz size) *synth.Universe {
	world := synth.NewWorld(seed, sz.products, 0)
	cfg := synth.DefaultConfig(shapeSeed, sz.sources)
	cfg.MinRecords, cfg.MaxRecords = sz.minRecords, sz.maxRecords
	return synth.Generate(world, cfg)
}

// churn is the share of products whose price moves per World.Evolve.
const churn = 0.1

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     size
	dir      string // where spans and durable logs go, inside the checkout
	workers  int
}

// lane is one universe of a run and the workload's state on it.
type lane struct {
	j     int
	seed  int64
	u     *synth.Universe
	p     wrangle.Provider
	s     *wrangle.Session // the lane's current session
	w     *watcher         // refresh-stream: the lane's long-lived watcher
	steps []step           // the script the oracle replays
	ops   int              // ops run on this lane so far

	// ids are the sources refreshed round-robin (restart: from off). The
	// order is the same for every seed: sources differ in size and
	// format, and a seed-dependent rotation would change the mix of
	// refresh costs a window samples.
	ids   []string
	off   int
	lines []wrangle.ReportLine // refresh-stream: price lines to judge
	dir   string               // restart: the durable log

	prints []string // cold-run: every op's output fingerprint
	final  string   // the final state's fingerprint
}

// step is one writer action of a workload's script, replayed verbatim on
// the sequential reference session by the oracle.
type step struct {
	evolve   bool
	refresh  []string
	feedback *wrangle.Feedback
}

// opRecord is everything measured about one op.
type opRecord struct {
	i       int
	j       int    // the op's index within its lane
	kind    string // run | refresh | feedback | restart
	traced  bool
	scope   *opScope // non-nil while the op records spans
	start   time.Time
	latency time.Duration
	fresh   time.Duration
	deliver time.Duration
	version uint64
	failed  bool

	stages          map[string]time.Duration
	runWall         time.Duration // cold-run: RunStats.Duration
	shardsReused    int
	shardsResolved  int
	trustComponents int
	trustRecomputed int
	acquired        int64
	acquireBusy     time.Duration
	frameBytes      int
	changes         wrangle.ChangeSet

	restore, firstReact, close time.Duration
	walGrowth                  int64

	allocBytes, mallocs, gcs, gcPauseNs uint64
	cpu                                 time.Duration // process CPU time, all threads
}

type runner struct {
	cfg   config
	rng   *rand.Rand // the op script's randomness, from --seed
	coin  *rand.Rand // traced runs: which ops record spans
	tr    *tracer
	acq   *acquisitions
	start time.Time

	options   []string // the workload's session options, for the metadata
	lanes     []*lane
	setupS    []float64          // per-lane set-up, CPU seconds
	stealPct  float64            // host CPU steal over the measured window
	input     map[string]float64 // input shape, summed over lanes
	ops       []opRecord
	attempted int
	failed    int
	gaps      int
	evictions int
	values    map[string]float64
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), start: time.Now(),
		values: map[string]float64{}, input: map[string]float64{}}
	for j := 0; j < cfg.size.lanes; j++ {
		// Lane seeds of different run seeds never coincide.
		r.lanes = append(r.lanes, &lane{j: j, seed: cfg.seed*int64(cfg.size.lanes) + int64(j)})
	}
	if cfg.trace {
		r.tr = newTracer(r.start)
		r.coin = rand.New(rand.NewSource(cfg.seed + 1))
	}
	return r
}

// fail counts one failed op; the reason goes to stderr, never retried.
func (r *runner) fail(op int, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", r.cfg.workload, op, err)
}

// provider is what the lane's sessions acquire from: its universe, or
// in a traced run the universe behind the tracing wrapper (one wrapper
// serves every lane; ops run one at a time).
func (r *runner) provider(u *synth.Universe) wrangle.Provider {
	if !r.cfg.trace {
		return u
	}
	if r.acq == nil {
		r.acq = &acquisitions{}
	}
	return &tracedProvider{acquisitions: r.acq, Provider: u}
}

// setup sets up every lane — building its universe first — and records
// the CPU time each lane's set-up took.
func (r *runner) setup(fn func(l *lane) error) error {
	for _, l := range r.lanes {
		start := cpuTime()
		l.u = universe(l.seed, r.cfg.size)
		l.p = r.provider(l.u)
		if err := fn(l); err != nil {
			return fmt.Errorf("set-up of lane %d: %w", l.j, err)
		}
		r.setupS = append(r.setupS, (cpuTime() - start).Seconds())
	}
	return nil
}

// maxWindow bounds the measured window on a machine too slow to reach
// the sample floor; such a run then fails on the percentile check.
const maxWindow = 100 * time.Second

// measure runs op back to back — one closed-loop writer — until the
// window has lasted cfg.seconds and holds cfg.size.minOps ops, taking
// the lanes in turn. Each op's allocations are read around the op alone;
// after, when set, runs outside that bracket (the oracle's per-op
// fingerprint). In a traced run a seeded coin turns tracing on for about
// half the ops, so traced and untraced ops sample the same op and source
// mix and their difference estimates the tracing overhead.
func (r *runner) measure(op func(l *lane, rec *opRecord) error, after func(l *lane, rec *opRecord)) {
	start := time.Now()
	steal0, total0 := hostCPU()
	defer func() {
		steal1, total1 := hostCPU()
		r.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= r.cfg.seconds && i >= r.cfg.size.minOps) || el >= maxWindow {
			return
		}
		l := r.lanes[i%len(r.lanes)]
		rec := opRecord{i: i, j: l.ops, traced: r.coin != nil && r.coin.Intn(2) == 0}
		l.ops++
		if rec.traced {
			rec.scope = &opScope{t: r.tr, op: i, parent: r.tr.id()}
		}
		if r.acq != nil {
			r.acq.scope.Store(rec.scope)
			r.acq.take()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		err := op(l, &rec)
		rec.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		rec.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		rec.mallocs = m1.Mallocs - m0.Mallocs
		rec.gcs = uint64(m1.NumGC - m0.NumGC)
		rec.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
		if r.acq != nil {
			rec.acquired, rec.acquireBusy = r.acq.take()
			r.acq.scope.Store(nil)
		}
		if rec.scope != nil && !rec.start.IsZero() {
			r.tr.record(rec.scope.parent, 0, i, "op."+rec.kind, rec.start, rec.start.Add(rec.latency))
		}
		r.attempted++
		if err != nil {
			rec.failed = true
			r.fail(i, err)
		} else if after != nil {
			after(l, &rec)
		}
		r.ops = append(r.ops, rec)
		if i == r.cfg.size.minOps-1 {
			r.probe()
		}
	}
}

// probe takes the state metrics — live heap and output quality — at the
// window's minOps-th op. Every run reaches it, and the state there
// depends only on the seed, not on how many ops the machine's speed
// fits into the window.
func (r *runner) probe() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.values["heap_live_mb"] = float64(m.HeapAlloc) / 1e6
	if r.cfg.trace {
		return // evaluation needs the bare universe, which traced sessions wrap
	}
	var f1, price float64
	for _, l := range r.lanes {
		if l.s == nil {
			continue
		}
		ev := l.s.Evaluate()
		f1 += ratio(2*ev.EntityPrecision*ev.EntityRecall, ev.EntityPrecision+ev.EntityRecall)
		price += ev.PriceAccuracy
	}
	n := float64(len(r.lanes))
	r.values["entity_f1"] = f1 / n
	r.values["price_accuracy"] = price / n
}

// cpuTime is the process's user+system CPU time so far. Unlike wall
// time it excludes time the host's hypervisor steals from the guest's
// CPUs, so it stays comparable on a shared machine.
func cpuTime() time.Duration {
	var u syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &u); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(u.Utime.Nano() + u.Stime.Nano())
}

// hostCPU reads the machine's cumulative steal and total CPU ticks from
// /proc/stat; both are 0 where it is unavailable (steal then reads 0%).
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = n
		}
	}
	return steal, total
}

// span records a child span of the op when it is traced.
func (rec *opRecord) span(name string, start, end time.Time) {
	if sc := rec.scope; sc != nil {
		sc.t.record(0, sc.parent, sc.op, name, start, end)
	}
}

// deliverTimeout bounds the wait for the watcher; a version that does
// not arrive in time is a failed op.
const deliverTimeout = 10 * time.Second

// await waits until the watcher holds the op's version and takes the
// freshness and delivery times from it. A missing version, a gap or an
// eviction fails the op.
func (r *runner) await(w *watcher, rec *opRecord) error {
	ok := w.waitFor(rec.version, deliverTimeout)
	gaps, evictions := w.newFaults()
	r.gaps += gaps
	r.evictions += evictions
	if gaps > 0 || evictions > 0 {
		return fmt.Errorf("watcher saw %d gaps and %d evictions", gaps, evictions)
	}
	if !ok {
		return fmt.Errorf("version %d not delivered within %s", rec.version, deliverTimeout)
	}
	d, _ := w.delivery(rec.version)
	rec.fresh = d.recv.Sub(rec.start)
	rec.deliver = d.recv.Sub(d.published)
	rec.frameBytes = d.frameBytes
	rec.changes = d.changes
	rec.span("serve.deliver", d.published, d.recv)
	return nil
}

// noteReact copies a reaction's stage attribution and memo counters.
func (rec *opRecord) noteReact(st wrangle.ReactStats) {
	rec.stages = st.Stages
	rec.shardsReused, rec.shardsResolved = st.ShardsReused, st.ShardsResolved
	rec.trustComponents, rec.trustRecomputed = st.TrustComponents, st.TrustRecomputed
}

// runWorkload executes one workload end to end: set-up, the measured
// window, the correctness oracle and — traced — the layer replay.
func runWorkload(ctx context.Context, cfg config) (*runner, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newRunner(cfg)
	if err := fn(ctx, r); err != nil {
		return nil, err
	}
	return r, nil
}

var workloads = map[string]func(context.Context, *runner) error{
	"cold-run":       coldRun,
	"refresh-stream": refreshStream,
	"restart":        restart,
}
