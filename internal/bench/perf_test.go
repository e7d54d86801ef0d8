package bench

import (
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

// TestMetricsCountHarnessRuns checks that Options.Metrics — the
// registry -bench-json and -metrics-json are both filled from — counts
// every simulation the harness runs, single and concurrent, and that a
// nil registry counts nothing without failing.
func TestMetricsCountHarnessRuns(t *testing.T) {
	m := obs.NewMetrics()
	opts := Options{Cache: backend.NewCache(), Metrics: m}.init()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlan(opts, tp, plan, 8<<20, defaultChunk)
	if err != nil {
		t.Fatal(err)
	}
	ses := sim.Session{Kernel: plan.Kernel, BufferBytes: 8 << 20, ChunkBytes: defaultChunk}
	mr, err := runConcurrent(opts, sim.MultiConfig{Topo: tp, Sessions: []sim.Session{ses, ses}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim.runs":      2,
		"sim.events":    int64(res.Events + mr.Events),
		"sim.instances": int64(res.Instances + mr.Sessions[0].Instances + mr.Sessions[1].Instances),
	}
	for name, v := range want {
		if got := m.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if len(m.Snapshot().Gauges) == 0 {
		t.Error("no link busy-time gauges recorded")
	}

	opts.Metrics = nil
	if _, err := runPlan(opts, tp, plan, 8<<20, defaultChunk); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sim.runs"); got != 2 {
		t.Errorf("a run without a registry was counted: sim.runs = %d", got)
	}
}

// TestBenchTraceCollectsTimelines checks that Options.Trace threads
// through the runner: a traced run records one timeline per simulation.
func TestBenchTraceCollectsTimelines(t *testing.T) {
	tr := obs.NewTrace()
	opts := Options{Cache: backend.NewCache(), Metrics: obs.NewMetrics(), Trace: tr}.init()
	b := backend.NewResCCL()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(opts, tp, plan, 8<<20, defaultChunk); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Timelines()); n != 1 {
		t.Errorf("trace has %d timelines, want 1", n)
	}
	var stages int
	for _, sp := range tr.Spans() {
		if sp.Cat == "compile" {
			stages++
		}
	}
	if stages == 0 {
		t.Error("no compile-stage spans recorded")
	}
}
