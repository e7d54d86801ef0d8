package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/resccl/resccl"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/tune"
)

// train-dispatch: a training library calling the public API on the
// paper's 2×8 A100 testbed. Set-up tunes a dispatch table; each job is
// a fresh Communicator on that table (a restarted training job paying
// its own cold compiles) making a seeded stream of gradient-bucket
// collectives plus one ResCCLang compile and run.

const (
	trainSetups = 3
	// trainHeadJobs is the fixed head of every measured loop: the jobs
	// the deterministic metrics and counters are taken from. The loop
	// then runs further jobs until the run length is used up.
	trainHeadJobs = 4
	// trainMaxJobsPerSecond bounds the jobs generated per second of
	// run length; one 300-call job takes about half a second on a
	// 2-core host.
	trainMaxJobsPerSecond = 4
	// trainTracedJobs bounds the jobs each traced pass repeats.
	trainTracedJobs = 4
)

// rclPath is the ResCCLang algorithm each job compiles, relative to the
// repository root.
const rclPath = "examples/algorithms/hm-allreduce-2x8.rcl"

// readRCL finds the algorithm from the repository root (where the
// benchmark runs) or from the benchmark's directory (where its tests
// run).
func readRCL() (string, error) {
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, rclPath)); err == nil {
			return string(b), nil
		}
	}
	return "", fmt.Errorf("cannot read %s", rclPath)
}

// callKey identifies calls whose results must agree across jobs.
type callKey struct {
	lang  bool
	op    ir.OpType
	bytes int64
}

// callRecord is what one call returned, compared when a job reruns.
type callRecord struct {
	algorithm  string
	protocol   ir.Protocol
	completion time.Duration
}

// trainer runs jobs against one tuned table and checks every call.
type trainer struct {
	tp       *resccl.Topology
	table    *resccl.DispatchTable
	lookup   *tune.Table
	src      string
	defaults map[ir.OpType]string
	r        *report
	peak     *heapPeak

	// completions holds the first result of every (op, size) call.
	completions map[callKey]time.Duration
}

// trainStats aggregates the calls of a sequence of jobs.
type trainStats struct {
	warm, cold, all []float64 // call latencies, ms
	lang            time.Duration
	jobs            int
	busy            time.Duration // CPU time of the jobs, set-up of their communicators included
	simComm         time.Duration
	planTBs         map[string]int
	cache           [2]int64 // hits, misses
}

func newTrainStats() *trainStats { return &trainStats{planTBs: map[string]int{}} }

// add pools another sequence of jobs into s.
func (s *trainStats) add(o *trainStats) {
	s.warm = append(s.warm, o.warm...)
	s.cold = append(s.cold, o.cold...)
	s.all = append(s.all, o.all...)
	s.lang += o.lang
	s.jobs += o.jobs
	s.busy += o.busy
	s.simComm += o.simComm
	for plan, tbs := range o.planTBs {
		if _, seen := s.planTBs[plan]; !seen {
			s.planTBs[plan] = tbs
		}
	}
	s.cache[0] += o.cache[0]
	s.cache[1] += o.cache[1]
}

// callOp makes one operator-level call.
func callOp(comm *resccl.Communicator, c trainCall, opts []resccl.RunOption) (*resccl.Run, error) {
	switch c.Op {
	case ir.OpAllReduce:
		return comm.AllReduce(c.Bytes, opts...)
	case ir.OpAllGather:
		return comm.AllGather(c.Bytes, opts...)
	default:
		return comm.ReduceScatter(c.Bytes, opts...)
	}
}

// expect returns the algorithm and tier the table dispatches a call
// to, or the built-in default for operators the table does not cover.
func (t *trainer) expect(c trainCall) (string, ir.Protocol, error) {
	e, ok := t.lookup.Lookup(c.Op, c.Bytes)
	if !ok {
		return t.defaults[c.Op], ir.ProtoAuto, nil
	}
	p, err := ir.ParseProtocol(e.Protocol)
	return e.Algorithm, p, err
}

// runJob runs one job on a fresh communicator and returns what each
// call returned and the job's plan-cache traffic. newOpts, when set,
// builds each call's options.
func (t *trainer) runJob(job trainJob, st *trainStats, newOpts func() []resccl.RunOption) ([]callRecord, [2]int64, error) {
	start := cpuNow()
	var traffic [2]int64
	comm, err := resccl.NewCommunicator(t.tp, resccl.WithDispatchTable(t.table))
	if err != nil {
		return nil, traffic, err
	}
	langStart := cpuNow()
	algo, err := resccl.CompileLang(t.src)
	st.lang += cpuSince(langStart)
	t.r.op(err)
	if err != nil {
		return nil, traffic, err
	}
	records := make([]callRecord, 0, len(job.Calls)+1)
	prev := comm.PlanCacheStats()
	do := func(key callKey, run func(opts []resccl.RunOption) (*resccl.Run, error), wantAlgo string, wantProto ir.Protocol) {
		var opts []resccl.RunOption
		if newOpts != nil {
			opts = newOpts()
		}
		begin := cpuNow()
		res, err := run(opts)
		d := cpuSince(begin)
		t.r.op(err)
		if err != nil {
			return
		}
		stats := comm.PlanCacheStats()
		lat := ms(d)
		st.all = append(st.all, lat)
		if stats.Misses > prev.Misses {
			st.cold = append(st.cold, lat)
			plan := res.Algorithm() + "/" + res.Protocol.String()
			if _, seen := st.planTBs[plan]; !seen {
				st.planTBs[plan] = res.Utilization().TBs
			}
		} else {
			st.warm = append(st.warm, lat)
		}
		prev = stats
		st.simComm += res.Completion
		if wantAlgo != "" {
			t.r.check(res.Algorithm() == wantAlgo && res.Protocol == wantProto,
				"%v %d B ran %s/%v, the table dispatches %s/%v", key.op, key.bytes, res.Algorithm(), res.Protocol, wantAlgo, wantProto)
		}
		if first, seen := t.completions[key]; seen {
			t.r.check(res.Completion == first, "%v %d B (lang %v) completed in %v, earlier job %v", key.op, key.bytes, key.lang, res.Completion, first)
		} else {
			t.completions[key] = res.Completion
		}
		records = append(records, callRecord{res.Algorithm(), res.Protocol, res.Completion})
	}
	for i, c := range job.Calls {
		if i == job.LangAt {
			do(callKey{lang: true, op: algo.Op, bytes: job.LangBytes}, func(opts []resccl.RunOption) (*resccl.Run, error) {
				return comm.RunAlgorithm(algo, job.LangBytes, opts...)
			}, "", 0)
		}
		wantAlgo, wantProto, err := t.expect(c)
		if err != nil {
			return nil, traffic, err
		}
		do(callKey{op: c.Op, bytes: c.Bytes}, func(opts []resccl.RunOption) (*resccl.Run, error) {
			return callOp(comm, c, opts)
		}, wantAlgo, wantProto)
	}
	st.jobs++
	st.busy += cpuSince(start)
	cs := comm.PlanCacheStats()
	traffic = [2]int64{cs.Hits, cs.Misses}
	st.cache[0] += cs.Hits
	st.cache[1] += cs.Misses
	t.peak.sample()
	runtime.KeepAlive(comm)
	return records, traffic, nil
}

// newTrainer runs the set-up (the autotuning sweep through the public
// API) setups times and returns a trainer on the resulting table with
// the set-up durations. Every sweep must produce the same table.
func newTrainer(setups int, r *report, peak *heapPeak) (*trainer, []float64, error) {
	src, err := readRCL()
	if err != nil {
		return nil, nil, err
	}
	t := &trainer{
		tp:          resccl.NewTopology(2, 8, resccl.A100()),
		src:         src,
		defaults:    map[ir.OpType]string{},
		r:           r,
		peak:        peak,
		completions: map[callKey]time.Duration{},
	}
	var times []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := cpuNow()
		comm, err := resccl.NewCommunicator(t.tp, resccl.WithAutotune())
		if err != nil {
			return nil, nil, err
		}
		table, err := comm.Tune()
		r.op(err)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, cpuSince(start).Seconds())
		peak.sample()
		runtime.KeepAlive(comm)
		if t.table != nil {
			r.check(table.Hash() == t.table.Hash(), "set-up %d tuned table %s, set-up 0 tuned %s", i, table.Hash(), t.table.Hash())
		}
		t.table = table
	}
	data, err := t.table.MarshalJSON()
	if err != nil {
		return nil, nil, err
	}
	if t.lookup, err = tune.Load(data); err != nil {
		return nil, nil, err
	}
	// The built-in default each operator runs when the table has no
	// bucket for it, as a table-less communicator reports it.
	ref, err := resccl.NewCommunicator(t.tp)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range opShare {
		run, err := callOp(ref, trainCall{Op: s.op, Bytes: bucketSizes[0]}, nil)
		if err != nil {
			return nil, nil, err
		}
		t.defaults[s.op] = run.Algorithm()
	}
	return t, times, nil
}

func runTrain(ctx context.Context, cfg config, r *report) error {
	var peak heapPeak
	setups := trainSetups
	if cfg.traced {
		setups = 1
	}
	t, setupTimes, err := newTrainer(setups, r, &peak)
	if err != nil {
		return err
	}
	jobs := trainJobs(cfg.seed, trainHeadJobs+trainMaxJobsPerSecond*cfg.seconds)
	if cfg.traced {
		return tracedTrain(ctx, cfg, t, jobs[:min(len(jobs), trainTracedJobs)], r)
	}
	r.set("setup_s", median(setupTimes))

	// The head jobs always run; further jobs run until the run length
	// is used up. Timings pool every call of the run, so each figure
	// averages over the whole run rather than one stretch of it.
	head, tail := newTrainStats(), newTrainStats()
	var first []callRecord
	var firstTraffic [2]int64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	n := 0
	for ; n < len(jobs) && (n < trainHeadJobs || time.Now().Before(deadline)); n++ {
		st := tail
		if n < trainHeadJobs {
			st = head
		}
		rec, traffic, err := t.runJob(jobs[n], st, nil)
		if err != nil {
			return fmt.Errorf("job %d: %w", n, err)
		}
		if n == 0 {
			first, firstTraffic = rec, traffic
		}
	}
	// Restart the first job: every call must dispatch and complete as
	// it did, with the same cache hits and misses.
	rec, traffic, err := t.runJob(jobs[0], newTrainStats(), nil)
	if err != nil {
		return fmt.Errorf("rerun of job 0: %w", err)
	}
	r.check(traffic == firstTraffic, "rerun of job 0: cache hits/misses %v, first run %v", traffic, firstTraffic)
	r.check(len(rec) == len(first), "rerun of job 0 made %d calls, first run %d", len(rec), len(first))
	for i := 0; i < min(len(rec), len(first)); i++ {
		r.check(rec[i] == first[i], "rerun of job 0, call %d: %+v, first run %+v", i, rec[i], first[i])
	}

	st := newTrainStats()
	st.add(head)
	st.add(tail)
	rate := float64(len(st.all)) / st.busy.Seconds()
	jobsRun := float64(st.jobs)
	r.set("warm_call_p50_ms", percentile(st.warm, 0.50))
	r.set("warm_call_p99_ms", percentile(st.warm, 0.99))
	r.set("cold_call_p50_ms", percentile(st.cold, 0.50))
	r.set("calls_per_s", rate)
	r.set("sim_comm_s", head.simComm.Seconds())
	r.set("tbs_per_rank", meanTBs(head.planTBs))
	r.set("compile_s", (sum(st.cold)/1e3+st.lang.Seconds())/jobsRun)
	r.set("simulate_s", sum(st.warm)/1e3/jobsRun)
	r.set("peak_heap_mb", peak.mb())
	r.set("serve_capacity_rps", rate)
	r.count("train.head_calls", float64(len(head.all)))
	r.count("train.head_cache_hits", float64(head.cache[0]))
	r.count("train.head_cache_misses", float64(head.cache[1]))
	r.count("train.sim_comm_ns", float64(head.simComm))
	r.count("train.tbs_per_rank", meanTBs(head.planTBs))
	fmt.Printf("info %d jobs, %d calls: %d warm, %d cold\n", st.jobs, len(st.all), len(st.warm), len(st.cold))
	return nil
}

func meanTBs(planTBs map[string]int) float64 {
	total := 0
	for _, n := range planTBs {
		total += n
	}
	return float64(total) / float64(max(len(planTBs), 1))
}

// tracedTrain is train-dispatch's traced run: the jobs once untraced
// and once with the public observability hooks on every call
// (WithMetrics, WithTraceSink), then the pipeline layers replayed on
// the table's plans, and the serve and tune/search probes.
func tracedTrain(ctx context.Context, cfg config, t *trainer, jobs []trainJob, r *report) error {
	base := newTrainStats()
	for j, job := range jobs {
		if _, _, err := t.runJob(job, base, nil); err != nil {
			return fmt.Errorf("job %d: %w", j, err)
		}
	}
	// Each call gets its own trace sink, harvested when the next call
	// starts, so simulated timelines do not pile up in memory.
	m := obs.NewMetrics()
	var simBusy time.Duration
	var sink *obs.Trace
	harvest := func() {
		for _, sp := range sink.Spans() {
			if sp.Cat == "execute" {
				simBusy += sp.Duration
			}
		}
	}
	traced := newTrainStats()
	alloc := startAllocDelta()
	for j, job := range jobs {
		_, _, err := t.runJob(job, traced, func() []resccl.RunOption {
			harvest()
			sink = resccl.NewTrace()
			return []resccl.RunOption{resccl.WithMetrics(m), resccl.WithTraceSink(sink)}
		})
		if err != nil {
			return fmt.Errorf("traced job %d: %w", j, err)
		}
	}
	harvest()
	alloc.record(r)
	r.set("trace.overhead_pct", overheadPct(sum(traced.all), sum(base.all)))

	tp := topo.New(2, 8, topo.A100())
	var plans []planInput
	seen := map[string]bool{}
	add := func(name string, proto ir.Protocol, bytes int64) {
		if key := name + "/" + proto.String(); !seen[key] {
			seen[key] = true
			plans = append(plans, planInput{label: key, build: func() (*ir.Algorithm, *topo.Topology, error) {
				algo, err := buildDispatched(name, tp)
				return algo, tp, err
			}, proto: proto, bytes: bytes, baselines: true})
		}
	}
	for _, e := range t.lookup.Entries {
		p, err := ir.ParseProtocol(e.Protocol)
		if err != nil {
			return err
		}
		add(e.Algorithm, p, e.ProbeBytes)
	}
	add("hm-reducescatter", ir.ProtoAuto, 4<<20)
	if _, err := replayLayers(ctx, plans, r); err != nil {
		return err
	}
	if err := probeServe(ctx, planKey{Algorithm: "hm-allreduce", Nodes: 2, GPUs: 8, Fabric: "flat", Backend: "resccl"}, r); err != nil {
		return err
	}
	if err := probeFixed(ctx, cfg.seed, r); err != nil {
		return err
	}
	// The workload's own layers, from the hooks.
	events, instances := int(m.Counter("sim.events")), int(m.Counter("sim.instances"))
	setSim(r, simBusy, events, instances, simBusy, events)
	hits, misses := m.Counter("plan_cache.hits"), m.Counter("plan_cache.misses")
	setCache(r, backend.CacheStats{Hits: hits, Misses: misses})
	return nil
}

// buildDispatched builds a dispatch-table algorithm by name on tp, as
// the communicator does: sketch names rebuild from their genome, the
// rest resolve through the registry.
func buildDispatched(name string, tp *topo.Topology) (*ir.Algorithm, error) {
	if synth.IsSketchName(name) {
		return synth.BuildNamed(name)
	}
	b, ok := expert.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	if b.NParams == 2 {
		return b.Build(tp.NNodes, tp.GPUsPerNode)
	}
	return b.Build(tp.NRanks())
}
