// Package resccl is a reproduction of "ResCCL: Resource-Efficient
// Scheduling for Collective Communication" (SIGCOMM 2025): a collective
// communication library backend that compiles algorithm logic — written
// in the ResCCLang DSL or built programmatically — into resource-
// efficient execution plans via primitive-level HPDS scheduling,
// flexible state-based thread-block allocation and lightweight kernel
// generation, and executes them on a deterministic flow-level cluster
// simulator standing in for the GPU fabric.
//
// The headline entry point is the Communicator:
//
//	tp := resccl.NewTopology(2, 8, resccl.A100())
//	comm, err := resccl.NewCommunicator(tp)
//	run, err := comm.AllReduce(1 << 30) // 1 GiB per rank
//	fmt.Println(run.AlgoBandwidth())    // bytes/s
//
// Backends other than ResCCL (the NCCL-like and MSCCL-like baselines of
// the paper) are available through WithBackend for comparisons, and
// custom algorithms run through RunAlgorithm or CompileLang.
package resccl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/lang"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/rt"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
)

// Op identifies a collective operator.
type Op = ir.OpType

// Collective operators.
const (
	AllGather     = ir.OpAllGather
	AllReduce     = ir.OpAllReduce
	ReduceScatter = ir.OpReduceScatter
	Broadcast     = ir.OpBroadcast
	AllToAll      = ir.OpAllToAll
)

// Protocol is an NCCL-style transport protocol tier. LL trades half the
// wire bandwidth for the lowest per-chunk latency, LL128 keeps 120/128
// of the bandwidth at moderate latency, Simple runs at full bandwidth
// with the full handshake cost. ProtoAuto (the default) lets the NCCL
// backend pick by message size, as the real library does; force a tier
// with WithProtocol.
type Protocol = ir.Protocol

// Protocol tiers.
const (
	ProtoAuto   = ir.ProtoAuto
	ProtoLL     = ir.ProtoLL
	ProtoLL128  = ir.ProtoLL128
	ProtoSimple = ir.ProtoSimple
)

// Algorithm is a collective communication algorithm: the data-transfer
// plan between GPUs, independent of execution policy.
type Algorithm = ir.Algorithm

// Rank identifies a GPU within the communicator.
type Rank = ir.Rank

// Topology describes the simulated cluster fabric.
type Topology = topo.Topology

// Profile bundles hardware constants for one GPU generation.
type Profile = topo.Profile

// A100 returns the paper's primary testbed profile (A100 + NVSwitch +
// 200 Gbps RoCE).
func A100() Profile { return topo.A100() }

// V100 returns the heterogeneous-cluster profile (V100 + 100 Gbps RoCE).
func V100() Profile { return topo.V100() }

// H100 returns a DGX-H100 class profile (450 GB/s NVSwitch, 400 Gbps
// InfiniBand).
func H100() Profile { return topo.H100() }

// NewTopology builds a cluster of nNodes servers × gpusPerNode GPUs.
func NewTopology(nNodes, gpusPerNode int, p Profile) *Topology {
	return topo.New(nNodes, gpusPerNode, p)
}

// CompileLang compiles ResCCLang source into an Algorithm.
func CompileLang(src string) (*Algorithm, error) { return lang.Compile(src) }

// BackendKind selects the execution backend.
type BackendKind int

// Available backends.
const (
	// BackendResCCL is the paper's backend: HPDS scheduling, state-based
	// TB allocation, direct kernels.
	BackendResCCL BackendKind = iota
	// BackendNCCL emulates the vendor-standard library (channelized
	// rings, interpreter, connection TBs).
	BackendNCCL
	// BackendMSCCL emulates Microsoft's MSCCL runtime (custom
	// algorithms on the NCCL-style backend, stage-level channels).
	BackendMSCCL
)

func (k BackendKind) String() string {
	switch k {
	case BackendResCCL:
		return "ResCCL"
	case BackendNCCL:
		return "NCCL"
	case BackendMSCCL:
		return "MSCCL"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Communicator executes collectives over a fixed topology, caching
// compiled plans by structural fingerprint.
type Communicator struct {
	topo *Topology
	kind BackendKind
	// def holds communicator-wide run defaults; per-call RunOptions
	// overlay it (options.go).
	def runSettings

	backend backend.Backend
	cache   *backend.Cache

	// Lazily autotuned dispatch table (WithAutotune / Tune); the sweep
	// runs at most once per communicator, error included.
	tuneOnce sync.Once
	tuned    *tune.Table
	tuneErr  error
}

// NewCommunicator creates a communicator over tp.
func NewCommunicator(tp *Topology, opts ...Option) (*Communicator, error) {
	if tp == nil {
		return nil, ErrNilTopology
	}
	c := &Communicator{
		topo:  tp,
		kind:  BackendResCCL,
		def:   runSettings{chunkBytes: 1 << 20},
		cache: backend.NewCache(),
	}
	for _, o := range opts {
		o.applyComm(c)
	}
	switch c.kind {
	case BackendResCCL:
		c.backend = backend.NewResCCL()
	case BackendNCCL:
		c.backend = backend.NewNCCL()
	case BackendMSCCL:
		c.backend = backend.NewMSCCL()
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, c.kind)
	}
	return c, nil
}

// Backend returns the communicator's backend name.
func (c *Communicator) Backend() string { return c.backend.Name() }

// NRanks returns the communicator size.
func (c *Communicator) NRanks() int { return c.topo.NRanks() }

// Run is the outcome of one collective execution.
type Run struct {
	// Backend identifies the backend that executed the plan.
	Backend string
	// BufferBytes is the per-rank payload.
	BufferBytes int64
	// Protocol is the transport protocol tier the plan ran under —
	// the auto-selected tier when the call left it to the backend, or
	// the forced tier of WithProtocol. ProtoAuto means the backend does
	// not distinguish tiers (Simple semantics).
	Protocol Protocol
	// Completion is the simulated wall time of the collective.
	Completion time.Duration

	algorithm string
	result    *sim.Result
	util      *trace.Utilization
	timeline  *obs.Timeline
}

// Algorithm returns the name of the executed algorithm. For calls
// dispatched through a DispatchTable this is the table's pick — a
// registry name ("hm-allreduce") or an encoded synthesized plan
// ("synth:sketch/…") — so callers can observe what the autotuner chose.
func (r *Run) Algorithm() string { return r.algorithm }

// AlgoBandwidth returns BufferBytes/Completion in bytes/s — the
// "algorithm bandwidth" metric of §5.2.
func (r *Run) AlgoBandwidth() float64 { return r.result.AlgoBW }

// MicroBatches returns how many micro-batches the transfer was split
// into.
func (r *Run) MicroBatches() int { return r.result.Plan.NMicroBatches }

// LinkUtilization returns the mean busy fraction of the links the
// algorithm used (Table 1's metric).
func (r *Run) LinkUtilization() float64 { return r.result.MeanLinkUtilization() }

// Utilization returns the thread-block utilization report (Table 3's
// metrics).
func (r *Run) Utilization() *trace.Utilization { return r.util }

// Timeline returns the run's simulated execution timeline, or nil when
// the run was not configured with WithTimeline or WithTraceSink. Export
// it with Timeline.WriteChrome, or add it to a Trace.
func (r *Run) Timeline() *Timeline { return r.timeline }

// defaultAlgorithm picks the communicator's standard algorithm for an
// operator on its topology: the hierarchical mesh algorithms across
// servers, NVSwitch full-mesh or ring algorithms inside one.
func (c *Communicator) defaultAlgorithm(op Op) (*Algorithm, error) {
	n, g := c.topo.NNodes, c.topo.GPUsPerNode
	multi := n > 1 && g > 1
	switch op {
	case AllGather:
		if multi {
			return expert.HMAllGather(n, g)
		}
		if n == 1 {
			return expert.MeshAllGather(g)
		}
		return expert.RingAllGather(c.topo.NRanks())
	case AllReduce:
		if multi {
			return expert.HMAllReduce(n, g)
		}
		if n == 1 {
			return expert.MeshAllReduce(g)
		}
		return expert.RingAllReduce(c.topo.NRanks())
	case ReduceScatter:
		if multi {
			return expert.HMReduceScatter(n, g)
		}
		return expert.RingReduceScatter(c.topo.NRanks())
	case Broadcast:
		if multi {
			return expert.HierarchicalBroadcast(n, g)
		}
		return expert.BinomialBroadcast(c.topo.NRanks())
	case AllToAll:
		// Direct pairwise exchange: at chunked payload sizes the relay
		// aggregation of HierarchicalAllToAll concentrates NIC load
		// without coalescing messages; it remains available in the
		// Algorithms catalog for footprint-constrained deployments.
		return expert.DirectAllToAll(c.topo.NRanks())
	default:
		return nil, fmt.Errorf("%w: no default for %v", ErrUnknownAlgorithm, op)
	}
}

// AllReduce executes an AllReduce of bufferBytes per rank.
func (c *Communicator) AllReduce(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllReduce, bufferBytes, opts)
}

// AllGather executes an AllGather of bufferBytes per rank.
func (c *Communicator) AllGather(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllGather, bufferBytes, opts)
}

// ReduceScatter executes a ReduceScatter of bufferBytes per rank.
func (c *Communicator) ReduceScatter(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(ReduceScatter, bufferBytes, opts)
}

// Broadcast sends rank 0's bufferBytes to every rank.
func (c *Communicator) Broadcast(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(Broadcast, bufferBytes, opts)
}

// AllToAll exchanges personalized segments: every rank sends bufferBytes
// split into per-destination segments (the MoE dispatch pattern).
func (c *Communicator) AllToAll(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllToAll, bufferBytes, opts)
}

// runOp executes an operator-level call. With a dispatch table in
// effect (WithDispatchTable or WithAutotune, per call or
// communicator-wide) the table picks the algorithm and protocol tier
// for the call's size; otherwise the built-in defaultAlgorithm runs.
func (c *Communicator) runOp(op Op, bufferBytes int64, opts []RunOption) (*Run, error) {
	if bufferBytes <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidBuffer, bufferBytes)
	}
	s := c.settings(opts)
	table, err := c.dispatchTable(&s)
	if err != nil {
		return nil, err
	}
	if table != nil {
		if e, ok := table.Lookup(op, bufferBytes); ok {
			algo, err := c.dispatch(table, e, &s)
			if err != nil {
				return nil, err
			}
			return c.run(algo, bufferBytes, s)
		}
		// The table has no bucket for this operator (a sweep over a
		// subset of ops); fall through to the built-in default.
	}
	algo, err := c.defaultAlgorithm(op)
	if err != nil {
		return nil, err
	}
	return c.run(algo, bufferBytes, s)
}

// RunAlgorithm compiles (or reuses a cached plan for) the algorithm and
// executes it with the given per-rank payload. Per-call RunOptions
// override the communicator's defaults. Explicit algorithms bypass
// dispatch tables — the caller already chose the plan.
func (c *Communicator) RunAlgorithm(algo *Algorithm, bufferBytes int64, opts ...RunOption) (*Run, error) {
	if bufferBytes <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidBuffer, bufferBytes)
	}
	return c.run(algo, bufferBytes, c.settings(opts))
}

func (c *Communicator) run(algo *Algorithm, bufferBytes int64, s runSettings) (*Run, error) {
	runs, err := c.execute([]*Algorithm{algo}, []int64{bufferBytes}, s, false)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// execute compiles every algorithm through the plan cache and simulates
// them side by side, one session each, recording into the call's sinks
// through trace.Simulate. A single run is the one-session case; only
// concurrent calls name their span "sim/concurrent(n)" and their
// timelines "session<i>/…".
func (c *Communicator) execute(algos []*Algorithm, bufferBytes []int64, s runSettings, concurrent bool) ([]*Run, error) {
	plans := make([]*backend.Plan, len(algos))
	sessions := make([]sim.Session, len(algos))
	names := make([]string, len(algos))
	for i, algo := range algos {
		plan, err := c.plan(algo, &s, c.resolveProtocol(&s, algo.Op, bufferBytes[i]))
		if err != nil {
			return nil, err
		}
		chunk := s.chunkBytes
		if s.autoTune {
			if tuned, err := core.TuneChunkSize(plan.Kernel.Graph, bufferBytes[i]); err == nil {
				chunk = tuned
			}
		}
		plans[i] = plan
		sessions[i] = sim.Session{Kernel: plan.Kernel, BufferBytes: bufferBytes[i], ChunkBytes: chunk}
		names[i] = plan.Backend + "/" + plan.Algo.Name
		if concurrent {
			names[i] = fmt.Sprintf("session%d/%s", i, names[i])
		}
	}
	var span *obs.ActiveSpan
	if concurrent {
		span = s.trace.StartSpan("execute", fmt.Sprintf("sim/concurrent(%d)", len(algos)))
	} else {
		span = s.trace.StartSpan("execute", "sim/"+plans[0].Algo.Name,
			obs.Attr{Key: "backend", Value: plans[0].Backend})
	}
	mr, tls, err := trace.Simulate(sim.MultiConfig{Topo: c.topo, Sessions: sessions, RecordTimeline: s.timeline},
		names, s.metrics, s.trace, span)
	if err != nil {
		return nil, err
	}
	runs := make([]*Run, len(algos))
	for i, res := range mr.Sessions {
		plan := plans[i]
		name := plan.Algo.Name
		if s.dispatchName != "" {
			name = s.dispatchName
		}
		runs[i] = &Run{
			Backend:     plan.Backend,
			BufferBytes: bufferBytes[i],
			Protocol:    plan.Kernel.Protocol,
			Completion:  time.Duration(res.Completion * float64(time.Second)),
			algorithm:   name,
			result:      res,
			util:        trace.Analyze(plan.Kernel, res, plan.Backend),
		}
		if tls != nil {
			runs[i].timeline = tls[i]
		}
	}
	return runs, nil
}

// resolveProtocol turns the call's protocol setting into a concrete
// request tier: a forced tier passes through; auto on the NCCL backend
// becomes the size-based choice real NCCL's tuning table would make
// (sim.SelectProtocol); auto elsewhere stays auto, which the
// simulator treats as Simple — ResCCL and MSCCL plans are unchanged
// unless a tier is forced.
func (c *Communicator) resolveProtocol(s *runSettings, op Op, bufferBytes int64) ir.Protocol {
	if s.protocol.Forced() || c.kind != BackendNCCL {
		return s.protocol
	}
	return sim.SelectProtocol(c.topo, op, bufferBytes)
}

// plan compiles the algorithm with the communicator's backend through
// the structural plan cache (keyed on backend configuration, algorithm
// transfers, topology and — for dispatched runs — the dispatch table's
// content hash, not just the algorithm's name). On a miss it records
// the backend's compile stages into the call's trace sink and counts
// cache traffic into its metrics.
func (c *Communicator) plan(algo *Algorithm, s *runSettings, proto ir.Protocol) (*backend.Plan, error) {
	p, hit, err := c.cache.CompileNoted(context.Background(), c.backend, backend.Request{
		Algo: algo, Topo: c.topo, Protocol: proto, TuneHash: s.tuneHash,
	})
	if err != nil {
		return nil, err
	}
	if hit {
		s.metrics.Add("plan_cache.hits", 1)
	} else {
		s.metrics.Add("plan_cache.misses", 1)
		s.trace.AddStages("compile", "compile/"+algo.Name, p.Stages)
	}
	return p, nil
}

// PlanCacheStats snapshots the communicator's plan-cache counters.
func (c *Communicator) PlanCacheStats() backend.CacheStats { return c.cache.Stats() }

// Verify checks an algorithm's correctness on the data plane against
// its operator postcondition (without simulating timing).
func Verify(algo *Algorithm) error { return collective.Check(algo) }

// EmitLang renders an algorithm back to ResCCLang source (one transfer
// statement per task). CompileLang(EmitLang(a)) reproduces a's transfer
// set.
func EmitLang(algo *Algorithm) (string, error) { return lang.Emit(algo) }

// EmbedAlgorithm remaps an algorithm written for a sub-communicator onto
// the full cluster: ranks[i] is the global rank playing the algorithm's
// rank i. Use it to build process-group collectives (tensor/data
// parallel groups) that RunConcurrently can schedule side by side.
func EmbedAlgorithm(algo *Algorithm, ranks []ir.Rank, fullRanks int) (*Algorithm, error) {
	return ir.Embed(algo, ranks, fullRanks)
}

// RunConcurrently executes several algorithms side by side on the
// communicator's cluster, sharing links and NICs — process groups or
// co-located tenants. bufferBytes[i] is the payload of algos[i]. The
// returned runs are in input order; each Run's Completion is that
// collective's own finish time under contention.
func (c *Communicator) RunConcurrently(algos []*Algorithm, bufferBytes []int64, opts ...RunOption) ([]*Run, error) {
	if len(algos) == 0 || len(algos) != len(bufferBytes) {
		return nil, fmt.Errorf("resccl: need equal, non-zero numbers of algorithms and buffer sizes")
	}
	for i, b := range bufferBytes {
		if b <= 0 {
			return nil, fmt.Errorf("%w: buffer %d", ErrInvalidBuffer, i)
		}
	}
	return c.execute(algos, bufferBytes, c.settings(opts), true)
}

// ExecuteAlgorithm compiles the algorithm with the communicator's
// backend and executes the resulting kernel on the concurrent data-plane
// runtime: one goroutine per thread block, real buffer movement,
// cross-TB semaphores. It verifies every micro-batch's final state
// against the operator postcondition — proving the compiled plan is
// deadlock-free and semantically correct, independent of the timing
// simulator.
func (c *Communicator) ExecuteAlgorithm(algo *Algorithm, microBatches int, opts ...RunOption) error {
	// No payload size exists here, so auto stays auto: the data-plane
	// runtime moves symbolic chunks and has no protocol dimension.
	s := c.settings(opts)
	plan, err := c.plan(algo, &s, s.protocol)
	if err != nil {
		return err
	}
	span := s.trace.StartSpan("execute", "rt/"+plan.Algo.Name)
	res, err := rt.Execute(rt.Config{Kernel: plan.Kernel, MicroBatches: microBatches})
	span.End()
	if err != nil {
		return err
	}
	s.metrics.Add("rt.instances", int64(res.Instances))
	s.metrics.Add("rt.replans", int64(len(res.ReplanEvents)))
	return res.Verify()
}
