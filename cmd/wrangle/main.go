// Command wrangle generates a synthetic source universe and runs the full
// Figure-1 wrangling pipeline over it under a chosen user context,
// printing the wrangled data preview, the per-source selection report and
// the ground-truth evaluation. It is a thin CLI over the public
// repro/wrangle package.
//
// With -serve it stays up as a small serving tier: HTTP readers query the
// latest committed snapshot version (lock-free) while a background loop
// churns the synthetic world and refreshes sources; Ctrl-C shuts down
// gracefully.
//
// Usage:
//
//	wrangle [-seed N] [-sources N] [-domain products|locations]
//	        [-context balanced|routine|investigation] [-max-sources N]
//	        [-parallelism N] [-shards N] [-streaming] [-retain N]
//	        [-csv out.csv]
//	        [-serve [-listen addr] [-refresh-every d] [-churn f] [-pprof]]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed")
	nSources := flag.Int("sources", 12, "number of sources to generate")
	domain := flag.String("domain", "products", "products or locations")
	ctxName := flag.String("context", "balanced", "user context: balanced, routine or investigation")
	maxSources := flag.Int("max-sources", 0, "source budget (0 = unlimited)")
	parallelism := flag.Int("parallelism", 0, "per-source worker bound (0 = one per CPU, 1 = sequential)")
	shards := flag.Int("shards", 1, "integration-tail shards (output is identical at any count)")
	streaming := flag.Bool("streaming", false, "streaming refresh: reactions recompute only what their delta touched (output is identical)")
	csvOut := flag.String("csv", "", "write wrangled table as CSV to this file")
	serveMode := flag.Bool("serve", false, "after the run, serve snapshot versions over HTTP while refreshing in the background")
	listen := flag.String("listen", "127.0.0.1:8080", "listen address for -serve")
	refreshEvery := flag.Duration("refresh-every", 2*time.Second, "background refresh interval for -serve")
	churn := flag.Float64("churn", 0.1, "world churn rate per background refresh tick for -serve")
	retain := flag.Int("retain", 0, "snapshot versions to retain (0 = default window)")
	stateDir := flag.String("state", "", "durable state directory: log committed versions there and warm-restart from it")
	fsyncAlways := flag.Bool("fsync-always", false, "fsync the durable log on every published version (requires -state)")
	pprofFlag := flag.Bool("pprof", false, "with -serve: mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	// Flag combinations are validated before any work: -serve in
	// particular must not start a server off a half-valid configuration.
	if *parallelism < 0 {
		fmt.Fprintf(os.Stderr, "wrangle: parallelism must be >= 1, or 0 for one worker per CPU (got %d)\n", *parallelism)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "wrangle: shards must be >= 1 (got %d)\n", *shards)
		os.Exit(2)
	}
	if *retain < 0 {
		fmt.Fprintf(os.Stderr, "wrangle: retain must be >= 1, or 0 for the default window (got %d)\n", *retain)
		os.Exit(2)
	}
	if *fsyncAlways && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "wrangle: -fsync-always requires -state")
		os.Exit(2)
	}
	if !*serveMode {
		serveOnly := map[string]string{"listen": "", "refresh-every": "", "churn": "", "pprof": ""}
		flag.Visit(func(f *flag.Flag) {
			if _, ok := serveOnly[f.Name]; ok {
				fmt.Fprintf(os.Stderr, "wrangle: -%s only makes sense with -serve\n", f.Name)
				os.Exit(2)
			}
		})
	} else {
		if *csvOut != "" {
			fmt.Fprintln(os.Stderr, "wrangle: -csv cannot be combined with -serve (the table keeps changing; query /table instead)")
			os.Exit(2)
		}
		if *refreshEvery <= 0 {
			fmt.Fprintf(os.Stderr, "wrangle: refresh-every must be positive (got %s)\n", *refreshEvery)
			os.Exit(2)
		}
		if *churn < 0 || *churn > 1 {
			fmt.Fprintf(os.Stderr, "wrangle: churn must be in [0,1] (got %g)\n", *churn)
			os.Exit(2)
		}
	}
	opts := []wrangle.Option{wrangle.WithSourceBudget(*maxSources)}
	if *serveMode {
		// A serving tier always carries its telemetry: /metrics and the
		// /healthz summary read the session registry.
		opts = append(opts, wrangle.WithMetrics())
	}
	if *stateDir != "" {
		opts = append(opts, wrangle.WithDurableLog(*stateDir))
		if *fsyncAlways {
			opts = append(opts, wrangle.WithDurableFsync(wrangle.FsyncAlways))
		}
	}
	if *retain >= 1 {
		opts = append(opts, wrangle.WithRetainVersions(*retain))
	}
	if *parallelism >= 1 {
		// Output is byte-identical at any worker count; the flag only
		// trades wall-clock for cores.
		opts = append(opts, wrangle.WithParallelism(*parallelism))
	}
	// Likewise byte-identical at any shard count: sharding fans the
	// resolve → fuse tail out and bounds each publication's delta per
	// shard.
	opts = append(opts, wrangle.WithIntegrationShards(*shards))
	if *streaming {
		// Reactions recompute only what their delta touched; -serve
		// refresh ticks report the split on each published version.
		opts = append(opts, wrangle.WithStreamingRefresh())
	}
	var u *synth.Universe
	switch *domain {
	case "locations":
		world := synth.NewWorld(*seed, 0, 300)
		scfg := synth.DefaultConfig(*seed, *nSources)
		scfg.Domain = synth.DomainLocations
		u = synth.Generate(world, scfg)
		opts = append(opts, wrangle.WithDomain(wrangle.Locations))
	case "products":
		world := synth.NewWorld(*seed, 300, 0)
		for i := 0; i < 24; i++ {
			world.Evolve(0.15)
		}
		u = synth.Generate(world, synth.DefaultConfig(*seed, *nSources))
		opts = append(opts,
			wrangle.WithDomain(wrangle.Products),
			wrangle.WithMasterData(masterData(u, 120), "sku"))
	default:
		fmt.Fprintf(os.Stderr, "wrangle: unknown domain %q (want products or locations)\n", *domain)
		os.Exit(2)
	}
	opts = append(opts, wrangle.WithProvider(u))

	ucOpt, ucName, err := userContext(*ctxName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ucOpt != nil {
		opts = append(opts, ucOpt)
	}

	s, err := wrangle.New(opts...)
	if err != nil {
		// Package errors already carry the "wrangle:" prefix.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer s.Close()
	var out *wrangle.Table
	if s.Restored() {
		// Warm restart: the state directory held committed versions, so
		// the session serves and reacts from the restored snapshot — no
		// cold run needed.
		out = s.Wrangled()
		if ds, ok := s.Durability(); ok {
			fmt.Printf("restored %d version(s) from %s (%d log bytes)\n\n",
				ds.RetainedVersions, ds.Dir, ds.Bytes)
		}
	} else {
		out, err = s.Run(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("universe: %d sources (%s), world clock %d\n", len(u.Sources), *domain, u.World.Clock)
	fmt.Printf("context:  %s (max sources %d)\n\n", ucName, *maxSources)
	fmt.Println("-- source selection --")
	snap := s.Snapshot()
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rep := snap[id]
		mark := " "
		if rep.Selected {
			mark = "*"
		}
		fmt.Printf("%s %-8s utility=%.3f rows=%-4d completeness=%.2f accuracy=%.2f timeliness=%.2f\n",
			mark, id, rep.Utility, rep.Rows, rep.Completeness, rep.Accuracy, rep.Timeliness)
	}

	fmt.Printf("\n-- wrangled data (%d entities) --\n%s\n", out.Len(), out.String())

	// The Example-5 report: conflicted lines are where reviewer feedback
	// pays off first.
	rep := s.Report("price intelligence", "price")
	sum := rep.Summarise()
	fmt.Printf("\n-- price report: %d lines, %d conflicted, mean confidence %.2f --\n",
		sum.Lines, sum.Conflicts, sum.MeanConfidence)
	if conflicted := rep.Conflicted(); len(conflicted) > 0 {
		show := conflicted
		if len(show) > 5 {
			show = show[:5]
		}
		for _, l := range show {
			fmt.Printf("! %-12s %-10s %-14s conf=%.2f sources=%v\n",
				l.Entity, l.Attribute, l.Value, l.Confidence, l.Supporters)
		}
	}

	ev := s.Evaluate()
	switch *domain {
	case "locations":
		fmt.Printf("\nevaluation: precision=%.3f recall=%.3f street-accuracy=%.3f\n",
			ev.EntityPrecision, ev.EntityRecall, ev.NameAccuracy)
	default:
		fmt.Printf("\nevaluation: precision=%.3f recall=%.3f name-acc=%.3f price-acc=%.3f mean-price-err=%.3f\n",
			ev.EntityPrecision, ev.EntityRecall, ev.NameAccuracy, ev.PriceAccuracy, ev.MeanPriceError)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := wrangle.WriteCSV(f, out); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *csvOut)
	}

	if *serveMode {
		if err := runServe(s, u, *listen, *refreshEvery, *churn, *pprofFlag); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
	}
	if *stateDir != "" {
		// Compact the log to the retention window and fsync, so the next
		// start replays a minimal, fully durable file.
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle: checkpoint:", err)
			os.Exit(1)
		}
	}
}

// userContext maps a CLI context name to a session option. "balanced" is
// the session default (nil option).
func userContext(name string) (wrangle.Option, string, error) {
	switch name {
	case "balanced":
		return nil, "balanced", nil
	case "routine":
		ahp, _ := wrangle.NewAHP(wrangle.Accuracy, wrangle.Timeliness, wrangle.Completeness)
		ahp.Set(wrangle.Accuracy, wrangle.Completeness, 5)
		ahp.Set(wrangle.Timeliness, wrangle.Completeness, 4)
		ahp.Set(wrangle.Accuracy, wrangle.Timeliness, 1)
		return wrangle.WithAHPWeights("routine price comparison", ahp), "routine price comparison", nil
	case "investigation":
		ahp, _ := wrangle.NewAHP(wrangle.Accuracy, wrangle.Timeliness, wrangle.Completeness)
		ahp.Set(wrangle.Completeness, wrangle.Accuracy, 5)
		ahp.Set(wrangle.Completeness, wrangle.Timeliness, 5)
		return wrangle.WithAHPWeights("issue investigation", ahp), "issue investigation", nil
	default:
		return nil, "", fmt.Errorf("wrangle: unknown context %q", name)
	}
}

func masterData(u *synth.Universe, n int) *wrangle.Table {
	t := wrangle.NewTable(wrangle.MustSchema(
		wrangle.Field{Name: "sku", Kind: wrangle.KindString},
		wrangle.Field{Name: "name", Kind: wrangle.KindString},
		wrangle.Field{Name: "brand", Kind: wrangle.KindString},
		wrangle.Field{Name: "price", Kind: wrangle.KindFloat},
	))
	for i, p := range u.World.Products {
		if i >= n {
			break
		}
		price, _ := u.World.PriceAt(p.SKU, u.World.Clock)
		t.AppendValues(wrangle.String(p.SKU), wrangle.String(p.Name),
			wrangle.String(p.Brand), wrangle.Float(price))
	}
	return t
}
