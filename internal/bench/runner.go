package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
)

// The harness decomposes every experiment into independent *cells* —
// one (backend, algorithm, topology, buffer) simulation or compilation
// unit. Cells write their results into pre-indexed slots and tables are
// assembled serially afterwards in canonical order, so a parallel run
// produces byte-identical tables to a serial one: ordering never depends
// on goroutine scheduling, and the plan cache's singleflight keeps
// hit/miss counts deterministic too. The only quantities that may differ
// between two runs of any kind are measured wall-clock timings — the
// Figure 10a phase timings and the faulted replan table's recovery
// columns — which are non-deterministic even serially.

// runCells executes cells 0..n-1 through tune.RunCells' worker pool
// when opts.Parallel is set, serially otherwise.
func runCells(opts Options, n int, cell func(i int) error) error {
	return tune.RunCells(opts.Parallel, opts.Workers, n, cell)
}

// runSim is the harness's observed sim.Run: the one-session case of
// runConcurrent, its timeline named after the kernel.
func runSim(opts Options, cfg sim.Config) (*sim.Result, error) {
	mr, err := simulate(opts, sim.MultiConfig{
		Topo:       cfg.Topo,
		Sessions:   []sim.Session{{Kernel: cfg.Kernel, BufferBytes: cfg.BufferBytes, ChunkBytes: cfg.ChunkBytes}},
		Congestion: cfg.Congestion,
		Faults:     cfg.Faults,
	}, []string{cfg.Kernel.Name})
	if err != nil {
		return nil, err
	}
	return mr.Sessions[0], nil
}

// runConcurrent is the harness's observed sim.RunConcurrent; session i's
// timeline is named "session<i>/<kernel>".
func runConcurrent(opts Options, cfg sim.MultiConfig) (*sim.MultiResult, error) {
	names := make([]string, len(cfg.Sessions))
	for i, se := range cfg.Sessions {
		names[i] = fmt.Sprintf("session%d/%s", i, se.Kernel.Name)
	}
	return simulate(opts, cfg, names)
}

// simulate runs cfg through trace.Simulate, counting it into
// opts.Metrics and, with a trace sink configured, recording its
// timelines.
func simulate(opts Options, cfg sim.MultiConfig, names []string) (*sim.MultiResult, error) {
	cfg.RecordTimeline = opts.Trace != nil
	mr, _, err := trace.Simulate(cfg, names, opts.Metrics, opts.Trace, nil)
	return mr, err
}
