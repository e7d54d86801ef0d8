package sim

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/hotpath.golden")

// TestHotPathGolden pins the simulator's observable output bit for bit
// over a corpus that covers every readiness rule of the event loop: a
// rail fabric with link predecessors, the MSCCL backend's heavy
// contention, NCCL's per-micro-batch barrier, concurrent sessions, a
// seeded fault schedule and a timeline-recording run. The incremental
// vs FullResolve oracle cannot catch a readiness bug both solvers
// share; this golden can. Regenerate it only for a deliberate change of
// simulated behaviour, with `go test ./internal/sim -run HotPath -update`.
func TestHotPathGolden(t *testing.T) {
	var sb strings.Builder
	for _, run := range hotPathRuns(t) {
		mr, err := RunConcurrent(run.cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		writeMulti(&sb, run.name, mr)
	}
	got := sb.String()
	const path = "testdata/hotpath.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulator output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

type hotPathRun struct {
	name string
	cfg  MultiConfig
}

func hotPathRuns(t *testing.T) []hotPathRun {
	t.Helper()
	ctx := context.Background()
	mustCompile := func(b backend.Backend, req backend.Request) *backend.Plan {
		t.Helper()
		plan, err := b.Compile(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	mustAlgo := func(a *ir.Algorithm, err error) *ir.Algorithm {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	single := func(name string, tp *topo.Topology, plan *backend.Plan, buf int64) hotPathRun {
		return hotPathRun{name, MultiConfig{Topo: tp, Sessions: []Session{{Kernel: plan.Kernel, BufferBytes: buf, ChunkBytes: 1 << 20}}}}
	}
	var runs []hotPathRun

	rail := topo.NewRail(16, 8, topo.A100(), 8)
	hier := mustCompile(backend.NewResCCL(), backend.Request{Algo: mustAlgo(expert.Build("hier-allreduce", 16, 8)), Topo: rail})
	runs = append(runs, single("hier-allreduce 16x8 rail 64MiB", rail, hier, 64<<20))

	tp48 := topo.New(4, 8, topo.A100())
	hm := mustCompile(backend.NewMSCCL(), backend.Request{Algo: mustAlgo(expert.HMAllReduce(4, 8)), Topo: tp48})
	runs = append(runs, single("msccl hm-allreduce 4x8 1GiB", tp48, hm, 1<<30))

	tp28 := topo.New(2, 8, topo.A100())
	nccl := mustCompile(backend.NewNCCL(), backend.Request{
		Algo: &ir.Algorithm{Name: "golden-ring", Op: ir.OpAllReduce, NRanks: 16, NChunks: 16}, Topo: tp28})
	if !nccl.Kernel.MBBarrier {
		t.Fatal("NCCL kernel lost its per-micro-batch barrier; the golden needs one")
	}
	runs = append(runs, single("nccl allreduce 2x8 mbbarrier 8MiB", tp28, nccl, 8<<20))

	tp24 := topo.New(2, 4, topo.A100())
	small := mustCompile(backend.NewResCCL(), backend.Request{Algo: mustAlgo(expert.HMAllReduce(2, 4)), Topo: tp24})
	ses := Session{Kernel: small.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
	runs = append(runs, hotPathRun{"3 concurrent hm-allreduce 2x4 16MiB",
		MultiConfig{Topo: tp24, Sessions: []Session{ses, ses, ses}}})

	faulted := single("hm-allreduce 2x4 32MiB faults seed 3", tp24, small, 32<<20)
	clean, err := Run(Config{Topo: tp24, Kernel: small.Kernel, BufferBytes: 32 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	faulted.cfg.Faults = fault.Generate(tp24, fault.Params{
		Seed: 3, N: 10, Horizon: clean.Completion,
		MeanDuration: clean.Completion / 5, NTBs: len(small.Kernel.TBs),
	})
	runs = append(runs, faulted)

	timeline := single("hm-allreduce 2x4 8MiB timeline", tp24, small, 8<<20)
	timeline.cfg.RecordTimeline = true
	runs = append(runs, timeline)
	return runs
}

// g renders a float in its shortest exact form: two renderings are
// equal iff the float bits are.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeMulti(sb *strings.Builder, name string, mr *MultiResult) {
	fmt.Fprintf(sb, "run %s\n", name)
	fmt.Fprintf(sb, "completion %016x events %d\n", math.Float64bits(mr.Completion), mr.Events)
	links := make([]topo.LinkID, 0, len(mr.LinkBusy))
	for l := range mr.LinkBusy { //resccl:allow mapiter
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		fmt.Fprintf(sb, "link %d %s\n", l, g(mr.LinkBusy[l]))
	}
	for _, f := range mr.Faults {
		fmt.Fprintf(sb, "fault %s %s %s %s\n", g(f.Time), g(f.End), f.Kind, f.Detail)
	}
	for i, r := range mr.Sessions {
		fmt.Fprintf(sb, "session %d completion %016x instances %d events %d\n",
			i, math.Float64bits(r.Completion), r.Instances, r.Events)
		for _, tb := range r.TBs {
			fmt.Fprintf(sb, "tb %d r%d exec %s sync %s first %s release %s slots %d\n",
				tb.ID, tb.Rank, g(tb.Exec), g(tb.Sync), g(tb.FirstArrival), g(tb.Release), tb.Slots)
			for _, seg := range tb.Segments {
				fmt.Fprintf(sb, "  seg %s %s\n", g(seg[0]), g(seg[1]))
			}
		}
		for _, sp := range r.Timeline {
			fmt.Fprintf(sb, "span t%d mb%d %d->%d tb%d/%d %s %s links %v\n",
				sp.Task, sp.MB, sp.Src, sp.Dst, sp.SendTB, sp.RecvTB, g(sp.Start), g(sp.End), sp.Links)
		}
	}
}

// TestEventCounts checks the split of Events by kind over the golden
// corpus: the kinds sum to Events, every instance costs one latency and
// one live data event, and fault boundaries and stale completions show
// up where the runs produce them. The FullResolve reruns, which must
// count no flushes, are left out under -short.
func TestEventCounts(t *testing.T) {
	runs := hotPathRuns(t)
	modes := []bool{false, true}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, run := range runs {
		for _, full := range modes {
			cfg := run.cfg
			cfg.FullResolve = full
			mr, err := RunConcurrent(cfg)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			k := mr.EventsByKind
			if sum := k.LatencyDone + k.DataDone + k.StaleDataDone + k.Fault; sum != mr.Events {
				t.Errorf("%s (full %v): kinds %+v sum to %d, Events = %d", run.name, full, k, sum, mr.Events)
			}
			instances := 0
			for _, r := range mr.Sessions {
				instances += r.Instances
			}
			if k.LatencyDone != instances || k.DataDone != instances {
				t.Errorf("%s (full %v): %d latency and %d data events for %d instances",
					run.name, full, k.LatencyDone, k.DataDone, instances)
			}
			if (k.Fault > 0) != (cfg.Faults != nil) {
				t.Errorf("%s (full %v): %d fault events", run.name, full, k.Fault)
			}
			if full != (mr.Flushes == 0) {
				t.Errorf("%s (full %v): %d flushes", run.name, full, mr.Flushes)
			}
		}
	}
	mr, err := RunConcurrent(runs[1].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mr.EventsByKind.StaleDataDone == 0 {
		t.Errorf("contended MSCCL run produced no stale data events: %+v", mr.EventsByKind)
	}
}
