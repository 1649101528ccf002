// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public wrangle facade for a measured window,
// checks the output against a sequential reference session, and prints
// its metrics as the last line of standard output:
//
//	go run . --workload cold-run --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it reports per-layer metrics instead: stage attribution,
// spans around every layer call the benchmark makes, and a replay of each
// layer on the workload's final inputs. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: cold-run, refresh-stream or restart")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs and op script")
	seconds := fs.Int("seconds", 15, "minimum length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for spans and durable logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, ok := sizes[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("invalid --seconds %d or --trace %d", *seconds, *trace)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, size: sz, dir: *out, workers: runtime.NumCPU(),
	}
	res, meta, err := execute(context.Background(), cfg)
	if err != nil {
		return err
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n%s\n", metaLine, line)
	return nil
}

// execute runs one workload and assembles its result line; a traced run
// also writes its spans next to the durable logs.
func execute(ctx context.Context, cfg config) (result, map[string]any, error) {
	r, err := runWorkload(ctx, cfg)
	if err != nil {
		return result{}, nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := buildMetrics(defs, r.values)
	if err != nil {
		return result{}, nil, err
	}
	meta := r.metadata()
	if cfg.trace {
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path, meta); err != nil {
			return result{}, nil, fmt.Errorf("spans: %w", err)
		}
		meta["spans"] = path
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, meta, nil
}
