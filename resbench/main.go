// Command resbench is the repository benchmark. It runs one of three
// seeded workloads — train-dispatch, scale-rail or serve-mix — checks
// every output it produces, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run, -trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	resbench -workload train-dispatch -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// maxProcs caps the scheduler: every workload runs on at most two
// cores, with at most two serve workers, tune workers and client
// connections.
const maxProcs = 2

// workload runs one benchmark scenario into r. An error means the
// workload could not be set up or run at all; failed operations and
// failed correctness checks are recorded in r instead.
type workload func(ctx context.Context, cfg config, r *report) error

type config struct {
	seed    int64
	seconds int
	traced  bool
}

var workloads = map[string]workload{
	"train-dispatch": runTrain,
	"scale-rail":     runScale,
	"serve-mix":      runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: train-dispatch, scale-rail or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "wall time in seconds the measured loop runs after set-up")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "resbench: need -workload %v, -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1}
	r := newReport()
	if err := run(context.Background(), cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "resbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	specs, positive := endToEnd, true
	if cfg.traced {
		specs, positive = perLayer, false
	}
	if err := r.write(os.Stdout, specs, positive); err != nil {
		fmt.Fprintf(os.Stderr, "resbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
