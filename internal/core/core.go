// Package core orchestrates the ResCCL backend-optimization workflow of
// §4.1 (Fig. 5): parse (ResCCLang → algorithm), analyze (algorithm →
// dependency DAG), schedule (HPDS → task pipeline), allocate (state-based
// TB assignment) and lower (pipeline → lightweight kernel), closed by the
// static-analysis vet gate. Compile is the one driver of that pipeline;
// it records per-stage wall time, which Fig. 10(a) reports as the
// offline workflow cost.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/lang"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// AllocPolicy selects the TB allocation strategy.
type AllocPolicy int

// Allocation policies.
const (
	// AllocStateBased is ResCCL's flexible allocation (§4.4).
	AllocStateBased AllocPolicy = iota
	// AllocConnectionBased is the rigid per-connection baseline, kept
	// for ablations.
	AllocConnectionBased
)

func (p AllocPolicy) String() string {
	if p == AllocStateBased {
		return "state-based"
	}
	return "connection-based"
}

// Options tune the compilation pipeline. The zero value is the paper's
// default configuration: HPDS scheduling, state-based allocation, direct
// kernels, 1 MiB chunks, the quick vet subset.
type Options struct {
	Policy sched.Policy
	Alloc  AllocPolicy
	Mode   kernel.ExecMode
	// ChunkBytes is the chunk size assumed for timeline analysis
	// (default 1 MiB).
	ChunkBytes int64
	// WindowMB is the micro-batch count assumed for timeline analysis
	// (default 8).
	WindowMB int
	// Protocol is the transport protocol tier stamped on the generated
	// kernel. Compilation itself is protocol-independent; the simulator
	// applies the tier's cost parameters at run time. The zero value
	// (auto) behaves as Simple.
	Protocol ir.Protocol
	// Checks selects the analyzer passes of the closing vet stage:
	// analyze.CheckQuick (the zero value), analyze.CheckGate or
	// analyze.CheckAll.
	Checks analyze.Checks
}

func (o Options) withDefaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 1 << 20
	}
	if o.WindowMB <= 0 {
		o.WindowMB = 8
	}
	if o.Checks == 0 {
		o.Checks = analyze.CheckQuick
	}
	return o
}

// Compiled bundles every artifact of one compilation.
type Compiled struct {
	Algo       *ir.Algorithm
	Graph      *dag.Graph
	Pipeline   *sched.Pipeline
	Windows    *talloc.Windows
	Assignment *talloc.Assignment
	Kernel     *kernel.Kernel
	// Stages is the wall time of each timed stage in pipeline order:
	// parse (ResCCLang input only), analyze, schedule, alloc, lower.
	Stages []obs.Stage
	// Vet is the closing static-analysis report: Options.Checks plus
	// the resource-budget lints, which are warnings.
	Vet     *analyze.Report
	Options Options
}

// Checkpoint is the stage-boundary cancellation probe shared by every
// compile pipeline: a cancelled or deadline-expired ctx stops the
// compile before the named stage with a typed error (errors.Is
// context.Canceled / context.DeadlineExceeded). who prefixes the
// message. A nil ctx never cancels.
func Checkpoint(ctx context.Context, who, stage string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: compile cancelled before %s: %w", who, stage, err)
	}
	return nil
}

// compilation is the state one run of the pipeline threads through its
// stages.
type compilation struct {
	*Compiled
	tp  *topo.Topology
	src string
}

// pipeline is the offline workflow in order. Compile enters after
// parse; CompileDSL runs all of it. Timed stages land in
// Compiled.Stages; the data-plane check and the vet gate are untimed,
// so the recorded stages keep Fig. 10(a)'s meaning.
var pipeline = [...]struct {
	name  string
	timed bool
	run   func(*compilation) error
}{
	{"parse", true, (*compilation).parse},
	{"check", false, (*compilation).check},
	{"analyze", true, (*compilation).analyzeDeps},
	{"schedule", true, (*compilation).schedule},
	{"alloc", true, (*compilation).alloc},
	{"lower", true, (*compilation).lower},
	{"vet", false, (*compilation).vet},
}

// Compile runs the ResCCL pipeline on an already-built algorithm. Every
// stage boundary is a cancellation checkpoint for ctx, so a dropped
// caller stops burning CPU at the next stage instead of completing the
// plan. The data-plane postcondition check runs exactly when the
// algorithm has the operator's default precondition (Initial == nil);
// repair plans are proven by verify.Replay instead. A plan whose vet
// report carries an error fails the compile.
func Compile(ctx context.Context, algo *ir.Algorithm, t *topo.Topology, opts Options) (*Compiled, error) {
	return run(ctx, &compilation{Compiled: &Compiled{Algo: algo}, tp: t}, opts, 1)
}

// CompileDSL parses ResCCLang source and compiles it, recording the
// parse stage as well.
func CompileDSL(ctx context.Context, src string, t *topo.Topology, opts Options) (*Compiled, error) {
	return run(ctx, &compilation{Compiled: &Compiled{}, tp: t, src: src}, opts, 0)
}

func run(ctx context.Context, c *compilation, opts Options, first int) (*Compiled, error) {
	opts = opts.withDefaults()
	if !opts.Protocol.Valid() {
		return nil, fmt.Errorf("core: undefined protocol tier %d", int(opts.Protocol))
	}
	c.Options = opts
	c.Stages = make([]obs.Stage, 0, len(pipeline))
	for _, s := range pipeline[first:] {
		if err := Checkpoint(ctx, "core", s.name); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.run(c); err != nil {
			return nil, fmt.Errorf("core: %s: %w", s.name, err)
		}
		if s.timed {
			c.Stages = append(c.Stages, obs.Stage{Name: s.name, Duration: time.Since(start)})
		}
	}
	return c.Compiled, nil
}

func (c *compilation) parse() (err error) {
	c.Algo, err = lang.Compile(c.src)
	return err
}

func (c *compilation) check() error {
	if c.Algo.Initial != nil {
		return nil
	}
	if err := collective.Check(c.Algo); err != nil {
		return fmt.Errorf("algorithm %q fails its %v postcondition: %w", c.Algo.Name, c.Algo.Op, err)
	}
	return nil
}

func (c *compilation) analyzeDeps() (err error) {
	c.Graph, err = dag.Build(c.Algo, c.tp)
	return err
}

func (c *compilation) schedule() (err error) {
	c.Pipeline, err = sched.Schedule(c.Graph, c.Options.Policy)
	return err
}

func (c *compilation) alloc() error {
	c.Windows = talloc.EstimateWindows(c.Pipeline, int(c.Options.ChunkBytes), c.Options.WindowMB)
	switch c.Options.Alloc {
	case AllocStateBased:
		c.Assignment = talloc.StateBased(c.Pipeline, c.Windows)
	case AllocConnectionBased:
		c.Assignment = talloc.ConnectionBased(c.Pipeline, c.Windows)
	default:
		return fmt.Errorf("unknown allocation policy %v", c.Options.Alloc)
	}
	return nil
}

func (c *compilation) lower() error {
	k, err := kernel.Generate(c.Pipeline, c.Assignment)
	if err != nil {
		return err
	}
	k.Mode = c.Options.Mode
	k.Protocol = c.Options.Protocol
	c.Kernel = k
	return nil
}

func (c *compilation) vet() (err error) {
	c.Vet, err = Vet(c.Kernel, c.tp, c.Options.Checks, analyze.Budget{}, 0)
	return err
}

// Vet is the static-analysis gate over a compiled plan: the analyzer
// passes selected by checks (zero runs them all), then the
// resource-budget lints against budget (zero fields take
// analyze.DefaultBudget) at a per-rank payload of bufferBytes
// (non-positive takes 64 MiB). Budget lints are warnings: an
// over-budget plan still runs correctly. The error is non-nil when the
// analysis could not run (nil report) or when the report carries an
// error diagnostic; the report is then still returned for callers that
// print every finding.
func Vet(k *kernel.Kernel, tp *topo.Topology, checks analyze.Checks, budget analyze.Budget, bufferBytes int64) (*analyze.Report, error) {
	rep, err := analyze.Plan(k, analyze.Options{Checks: checks})
	if err != nil {
		return nil, err
	}
	rep.Attach(k.Graph, analyze.BudgetLints(k, tp, bufferBytes, 0, budget)...)
	return rep, rep.Err()
}
