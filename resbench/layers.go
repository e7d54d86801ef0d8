package main

import (
	"context"
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/lang"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
	"github.com/resccl/resccl/internal/verify"
)

// The traced run measures each layer from outside: it calls the
// layer's exported entry point on the workload's own plans and times
// the call, so a layer's time is its self time. Nothing inside the
// program is instrumented.

// planInput is one distinct plan of a workload, replayed layer by
// layer. build constructs its algorithm and topology (timed as the
// expert/topo layer).
type planInput struct {
	label string
	build func() (*ir.Algorithm, *topo.Topology, error)
	proto ir.Protocol
	bytes int64
	// baselines also compiles the algorithm with the NCCL and MSCCL
	// backends.
	baselines bool
}

// cacheHitProbes is how many plan-cache hits are timed per plan.
const cacheHitProbes = 20

// replayLayers times every compile-pipeline layer on each plan. It
// returns the host time of the stages a backend compile and a
// simulation run (collective check, dag → kernel, vet, sim.Run),
// measured stage by stage.
func replayLayers(ctx context.Context, plans []planInput, r *report) (time.Duration, error) {
	var (
		corePath                                            time.Duration
		tBuild, tColl, tVerify, tDag, tSched, tAlloc, tKern time.Duration
		tVet, tFull, tCert, tResccl, tNCCL, tMSCCL, tHit    time.Duration
		tSim, tTrace                                        time.Duration
		tasks, subs, tbs, prims, events, instances, nHits   int
		largestRanks                                        int
		largestSim                                          time.Duration
		largestEvents                                       int
		gapSum                                              float64
	)
	for _, p := range plans {
		start := cpuNow()
		algo, tp, err := p.build()
		tBuild += cpuSince(start)
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: build: %w", p.label, err)
		}
		start = cpuNow()
		err = collective.Check(algo)
		d := cpuSince(start)
		tColl += d
		corePath += d
		r.op(err)
		if algo.NRanks <= verify.MaxRanks {
			start = cpuNow()
			_, err = verify.Check(algo.Op, algo.NRanks, algo.NChunks, nil, algo.Sorted(), verify.Expect{})
			tVerify += cpuSince(start)
			r.op(err)
		}

		stageStart := cpuNow()
		start = stageStart
		g, err := dag.Build(algo, tp)
		tDag += cpuSince(start)
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: dag: %w", p.label, err)
		}
		start = cpuNow()
		pl, err := sched.Schedule(g, sched.PolicyHPDS)
		tSched += cpuSince(start)
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: schedule: %w", p.label, err)
		}
		start = cpuNow()
		asg := talloc.StateBased(pl, talloc.EstimateWindows(pl, scaleChunk, 8))
		tAlloc += cpuSince(start)
		start = cpuNow()
		k, err := kernel.Generate(pl, asg)
		tKern += cpuSince(start)
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: lower: %w", p.label, err)
		}
		k.Protocol = p.proto
		start = cpuNow()
		rep, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckQuick})
		if err == nil {
			rep.Attach(g, analyze.BudgetLints(k, tp, 0, 0, analyze.Budget{})...)
			err = rep.Err()
		}
		tVet += cpuSince(start)
		corePath += cpuSince(stageStart)
		r.op(err)
		tasks += len(g.Tasks)
		subs += len(pl.Subs)
		tbs += asg.NTBs()
		prims += k.TotalSlots()

		start = cpuNow()
		_, err = analyze.Plan(k, analyze.Options{})
		tFull += cpuSince(start)
		r.op(err)

		start = cpuNow()
		crt, err := cert.Certify(k, tp, cert.Options{BufferBytes: p.bytes, ChunkBytes: scaleChunk})
		tCert += cpuSince(start)
		r.op(err)
		if err == nil {
			r.check(crt.GapPct >= 0, "%s: certificate gap %.3f%% < 0", p.label, crt.GapPct)
			gapSum += crt.GapPct
		}

		req := backend.Request{Algo: algo, Topo: tp, Protocol: p.proto}
		cache := backend.NewCache()
		start = cpuNow()
		plan, err := cache.Compile(ctx, backend.NewResCCL(), req)
		tResccl += cpuSince(start)
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: resccl compile: %w", p.label, err)
		}
		start = cpuNow()
		for j := 0; j < cacheHitProbes; j++ {
			_, err = cache.Compile(ctx, backend.NewResCCL(), req)
			r.op(err)
		}
		tHit += cpuSince(start)
		nHits += cacheHitProbes
		if p.baselines {
			start = cpuNow()
			_, err = backend.NewNCCL().Compile(ctx, req)
			tNCCL += cpuSince(start)
			r.op(err)
			start = cpuNow()
			_, err = backend.NewMSCCL().Compile(ctx, req)
			tMSCCL += cpuSince(start)
			r.op(err)
		}

		start = cpuNow()
		res, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: p.bytes, ChunkBytes: scaleChunk})
		d = cpuSince(start)
		tSim += d
		corePath += d
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: simulate: %w", p.label, err)
		}
		events += res.Events
		instances += res.Instances
		if algo.NRanks >= largestRanks {
			if algo.NRanks > largestRanks {
				largestSim, largestEvents = 0, 0
			}
			largestRanks = algo.NRanks
			largestSim += d
			largestEvents += res.Events
		}
		start = cpuNow()
		trace.Analyze(plan.Kernel, res, plan.Backend)
		tTrace += cpuSince(start)
	}
	n := float64(len(plans))
	r.set("expert.build_ms", ms(tBuild))
	r.set("collective.check_ms", ms(tColl))
	r.set("verify.check_ms", ms(tVerify))
	r.set("dag.build_ms", ms(tDag))
	r.set("dag.tasks", float64(tasks))
	r.set("sched.schedule_ms", ms(tSched))
	r.set("sched.subpipelines", float64(subs))
	r.set("talloc.alloc_ms", ms(tAlloc))
	r.set("talloc.tbs", float64(tbs))
	r.set("kernel.generate_ms", ms(tKern))
	r.set("kernel.primitives", float64(prims))
	r.set("analyze.vet_ms", ms(tVet))
	r.set("analyze.full_ms", ms(tFull))
	r.set("cert.certify_ms", ms(tCert))
	r.set("cert.gap_pct", gapSum/n)
	r.set("backend.resccl_compile_ms", ms(tResccl))
	r.set("backend.nccl_compile_ms", ms(tNCCL))
	r.set("backend.msccl_compile_ms", ms(tMSCCL))
	r.set("backend.cache_hit_us", float64(tHit)/float64(time.Microsecond)/float64(nHits))
	r.set("trace.analyze_us", float64(tTrace)/float64(time.Microsecond)/n)
	setSim(r, tSim, events, instances, largestSim, largestEvents)
	r.count("replay.dag_tasks", float64(tasks))
	r.count("replay.talloc_tbs", float64(tbs))
	r.count("replay.sim_events", float64(events))
	return corePath, nil
}

// langRepeats is how often the lang probe compiles the source.
const langRepeats = 5

// probeLang times the ResCCLang front end on the repository's example
// algorithm, the one train-dispatch compiles in every job (median of
// langRepeats compiles).
func probeLang(r *report) error {
	src, err := readRCL()
	if err != nil {
		return err
	}
	d, err := medianTime(langRepeats, func() error {
		_, err := lang.Compile(src)
		return err
	})
	r.op(err)
	r.set("lang.compile_ms", ms(d))
	return err
}

// setSim records the sim layer's busy time and work.
func setSim(r *report, run time.Duration, events, instances int, largest time.Duration, largestEvents int) {
	r.set("sim.run_ms", ms(run))
	r.set("sim.events", float64(events))
	r.set("sim.instances", float64(instances))
	r.set("sim.ns_per_event", float64(run)/float64(max(events, 1)))
	r.set("sim.largest_ns_per_event", float64(largest)/float64(max(largestEvents, 1)))
}

// probeFixed measures the layers every workload reports on the same
// inputs: the ResCCLang front end on the example algorithm, and the
// tune and synth/search layers on the paper's 2×8 A100 testbed (one
// full autotuning sweep, one sketch search).
func probeFixed(ctx context.Context, seed int64, r *report) error {
	if err := probeLang(r); err != nil {
		return err
	}
	tp := topo.New(2, 8, topo.A100())
	start := cpuNow()
	res, err := tune.Sweep(ctx, tp, tune.Options{Parallel: true, Workers: maxProcs})
	r.op(err)
	if err != nil {
		return fmt.Errorf("tune sweep: %w", err)
	}
	r.set("tune.sweep_s", cpuSince(start).Seconds())
	r.set("tune.cells", float64(len(res.Cells)))
	r.set("tune.pruned", float64(len(res.Pruned)))
	r.count("tune.cells", float64(len(res.Cells)))
	r.count("tune.pruned", float64(len(res.Pruned)))

	start = cpuNow()
	cands, err := search.Search(tp, ir.OpAllReduce, 4<<20, search.SearchOptions{Seed: seed})
	r.op(err)
	if err != nil {
		return fmt.Errorf("sketch search: %w", err)
	}
	r.set("search.search_ms", ms(cpuSince(start)))
	r.set("search.candidates", float64(len(cands)))

	// gated_out counts the sketch family's corners on this shape that
	// the registration gate rejects.
	gated := 0
	for _, in := range []synth.IntraKind{synth.IntraMesh, synth.IntraRing} {
		for _, ex := range []synth.InterKind{synth.InterDirect, synth.InterRing, synth.InterTree} {
			for _, sp := range []bool{false, true} {
				g := synth.Genome{Op: ir.OpAllReduce, NNodes: tp.NNodes, GPN: tp.GPUsPerNode, Intra: in, Inter: ex, Spread: sp}
				algo, err := g.Build()
				if err == nil {
					_, err = search.Gate(algo, tp, ir.ProtoAuto)
				}
				if err != nil {
					gated++
				}
			}
		}
	}
	r.set("search.gated_out", float64(gated))
	return nil
}
