package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/verify"
)

// scale-rail: a what-if study of hierarchical AllReduce on rail-optimized
// A100 clusters of 128, 512 and 4096 ranks. Each repetition compiles
// every shape cold (a fresh backend, no plan cache: core.Compile plus
// the vet gate) and simulates it once.

const (
	scaleSetups = 25
	// The middle shape is cheap, so each repetition compiles it
	// scaleMidCalls times and re-simulates its first plan
	// scaleWarmRepeats more times, for steadier typical-call figures.
	scaleMidCalls    = 3
	scaleWarmRepeats = 4
)

// scaleCase is one built shape.
type scaleCase struct {
	shape scaleShape
	tp    *topo.Topology
	algo  *ir.Algorithm
}

func (c scaleCase) String() string {
	return fmt.Sprintf("%d×%d rail", c.shape.Nodes, c.shape.GPUs)
}

// buildScale is the set-up: every shape's topology and algorithm.
func buildScale() ([]scaleCase, error) {
	out := make([]scaleCase, len(scaleShapes))
	for i, sh := range scaleShapes {
		algo, err := expert.Build("hier-allreduce", sh.Nodes, sh.GPUs)
		if err != nil {
			return nil, fmt.Errorf("hier-allreduce %d×%d: %w", sh.Nodes, sh.GPUs, err)
		}
		out[i] = scaleCase{shape: sh, tp: topo.NewRail(sh.Nodes, sh.GPUs, topo.A100(), sh.Spines), algo: algo}
	}
	return out, nil
}

// scaleResult is one shape's outcome in one repetition; the fields
// after the timings must repeat exactly across repetitions.
type scaleResult struct {
	compile, simulate time.Duration
	completion        float64
	events, tasks     int
	tbs, maxTBs       int
}

// runShape compiles and simulates one shape cold and checks the plan:
// it must vet clean, and the certificate's lower bound may not exceed
// the simulated completion. It then simulates the compiled plan warm
// more times and returns those times (ms); each must complete as the
// first did.
func runShape(ctx context.Context, c scaleCase, payload int64, warm int, r *report, peak *heapPeak) (scaleResult, []float64, error) {
	var out scaleResult
	var warmMS []float64
	runtime.GC()
	start := cpuNow()
	plan, err := backend.NewResCCL().Compile(ctx, backend.Request{Algo: c.algo, Topo: c.tp})
	out.compile = cpuSince(start)
	r.op(err)
	if err != nil {
		return out, nil, fmt.Errorf("%v: compile: %w", c, err)
	}
	peak.sample()
	r.check(plan.Vet != nil && plan.Vet.Clean(), "%v: plan does not vet clean: %v", c, plan.Vet)
	start = cpuNow()
	res, err := sim.Run(sim.Config{Topo: c.tp, Kernel: plan.Kernel, BufferBytes: payload, ChunkBytes: scaleChunk})
	out.simulate = cpuSince(start)
	r.op(err)
	if err != nil {
		return out, nil, fmt.Errorf("%v: simulate: %w", c, err)
	}
	peak.sample()
	crt, err := cert.FromCompletion(plan.Kernel, c.tp, cert.Options{BufferBytes: payload, ChunkBytes: scaleChunk}, res.Completion)
	r.op(err)
	if err == nil {
		r.check(crt.LowerBoundUS <= crt.CompletionUS && crt.GapPct >= 0,
			"%v: lower bound %.3f µs exceeds the simulated completion %.3f µs", c, crt.LowerBoundUS, crt.CompletionUS)
	}
	out.completion = res.Completion
	out.events = res.Events
	out.tasks = len(plan.Kernel.Graph.Tasks)
	out.tbs = plan.Kernel.NTBs()
	out.maxTBs = plan.Kernel.MaxTBsPerRank()
	for i := 0; i < warm; i++ {
		start = cpuNow()
		again, err := sim.Run(sim.Config{Topo: c.tp, Kernel: plan.Kernel, BufferBytes: payload, ChunkBytes: scaleChunk})
		warmMS = append(warmMS, ms(cpuSince(start)))
		r.op(err)
		if err == nil {
			r.check(again.Completion == res.Completion, "%v: warm run %d completed in %v s, the first in %v s", c, i, again.Completion, res.Completion)
		}
	}
	return out, warmMS, nil
}

func runScale(ctx context.Context, cfg config, r *report) error {
	var peak heapPeak
	payloads := scalePayloads(cfg.seed)
	var setups []float64
	var cases []scaleCase
	for i := 0; i < scaleSetups; i++ {
		cases = nil
		runtime.GC()
		start := cpuNow()
		built, err := buildScale()
		r.op(err)
		if err != nil {
			return err
		}
		setups = append(setups, cpuSince(start).Seconds())
		cases = built
		peak.sample()
	}
	if cfg.traced {
		return tracedScale(ctx, cfg, cases, payloads, r)
	}
	r.set("setup_s", median(setups))

	// The middle shape stands for the typical call and the largest for
	// the slow tail. Only each repetition's first call per shape counts
	// in compile_s and simulate_s. Repetitions (about three seconds
	// each on a 2-core host) run until the run length is used up, at
	// least one; every figure pools all of them.
	mid, last := len(cases)/2, len(cases)-1
	var midCold, midWarm, lastCold, lastWarm []float64
	var compile, simulate time.Duration
	first := make([]scaleResult, len(cases))
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	reps := 0
	for ; reps == 0 || time.Now().Before(deadline); reps++ {
		for i, c := range cases {
			calls := 1
			if i == mid {
				calls = scaleMidCalls
			}
			for k := 0; k < calls; k++ {
				extra := 0
				if i == mid && k == 0 {
					extra = scaleWarmRepeats
				}
				res, warm, err := runShape(ctx, c, payloads[i], extra, r, &peak)
				if err != nil {
					return err
				}
				if k == 0 {
					compile += res.compile
					simulate += res.simulate
				}
				switch i {
				case mid:
					midCold = append(midCold, ms(res.compile+res.simulate))
					midWarm = append(append(midWarm, ms(res.simulate)), warm...)
				case last:
					lastCold = append(lastCold, ms(res.compile+res.simulate))
					lastWarm = append(lastWarm, ms(res.simulate))
				}
				if reps == 0 && k == 0 {
					first[i] = res
					continue
				}
				got, want := res, first[i]
				got.compile, got.simulate, want.compile, want.simulate = 0, 0, 0, 0
				r.check(got == want, "%v: repetition %d gave %+v, repetition 0 %+v", c, reps, got, want)
			}
		}
	}

	simComm, tbs := 0.0, 0.0
	for i, res := range first {
		simComm += res.completion
		tbs += float64(res.maxTBs)
		name := fmt.Sprintf("scale.%d_ranks.", cases[i].tp.NRanks())
		r.count(name+"sim_events", float64(res.events))
		r.count(name+"dag_tasks", float64(res.tasks))
		r.count(name+"talloc_tbs", float64(res.tbs))
		r.count(name+"completion_s", res.completion)
	}
	rate := float64(len(cases)*reps) / (compile + simulate).Seconds()
	r.set("compile_s", compile.Seconds()/float64(reps))
	r.set("simulate_s", simulate.Seconds()/float64(reps))
	r.set("cold_call_p50_ms", median(midCold))
	r.set("warm_call_p50_ms", median(midWarm))
	r.set("warm_call_p99_ms", median(lastWarm))
	r.set("calls_per_s", rate)
	r.set("sim_comm_s", simComm)
	r.set("tbs_per_rank", tbs/float64(len(first)))
	r.set("peak_heap_mb", peak.mb())
	r.set("serve_capacity_rps", rate)
	r.count("scale.sim_comm_s", simComm)
	r.count("scale.tbs_per_rank", tbs/float64(len(first)))
	fmt.Printf("info %d repetitions of %d shapes\n", reps, len(cases))
	return nil
}

// tracedScale is scale-rail's traced run: one untraced repetition, then
// the same shapes replayed layer by layer (the replay's compile stages
// and simulation are the traced repetition), then the serve and
// tune/search probes.
func tracedScale(ctx context.Context, cfg config, cases []scaleCase, payloads []int64, r *report) error {
	var peak heapPeak
	var untraced time.Duration
	for i, c := range cases {
		res, _, err := runShape(ctx, c, payloads[i], 0, r, &peak)
		if err != nil {
			return err
		}
		untraced += res.compile + res.simulate
	}
	plans := make([]planInput, len(cases))
	for i, c := range cases {
		c := c
		sh := c.shape
		plans[i] = planInput{
			label: c.String(),
			build: func() (*ir.Algorithm, *topo.Topology, error) {
				algo, err := expert.Build("hier-allreduce", sh.Nodes, sh.GPUs)
				return algo, topo.NewRail(sh.Nodes, sh.GPUs, topo.A100(), sh.Spines), err
			},
			bytes: payloads[i],
			// The baseline backends are timed on the smallest shape.
			baselines: i == 0,
		}
	}
	alloc := startAllocDelta()
	traced, err := replayLayers(ctx, plans, r)
	if err != nil {
		return err
	}
	alloc.record(r)
	r.set("trace.overhead_pct", overheadPct(traced.Seconds(), untraced.Seconds()))

	// The symbolic verifier stops at verify.MaxRanks, below every
	// shape here; time it on the largest hier-allreduce it accepts.
	algo, err := expert.Build("hier-allreduce", verify.MaxRanks/8, 8)
	r.op(err)
	if err != nil {
		return err
	}
	d, err := medianTime(3, func() error {
		_, err := verify.Check(algo.Op, algo.NRanks, algo.NChunks, nil, algo.Sorted(), verify.Expect{})
		return err
	})
	r.op(err)
	r.set("verify.check_ms", ms(d))

	sh := scaleShapes[0]
	if err := probeServe(ctx, planKey{Algorithm: "hier-allreduce", Nodes: sh.Nodes, GPUs: sh.GPUs, Fabric: "rail", Backend: "resccl"}, r); err != nil {
		return err
	}
	return probeFixed(ctx, cfg.seed, r)
}
