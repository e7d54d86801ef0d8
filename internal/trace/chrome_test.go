package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// meshRun compiles a 4-GPU mesh AllReduce and simulates it with the
// timeline recorder on. Everything is deterministic: fixed algorithm,
// fixed topology, fixed buffer.
func meshRun(t *testing.T) (*obs.Timeline, *core.Compiled, *topo.Topology, *sim.Result) {
	t.Helper()
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(1, 4, topo.A100())
	c, err := core.Compile(context.Background(), algo, tp, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Topo: tp, Kernel: c.Kernel, BufferBytes: 8 << 20, ChunkBytes: 1 << 20,
		RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := BuildTimeline("resccl/mesh-allreduce", c.Kernel, tp, res)
	if tl == nil {
		t.Fatal("BuildTimeline returned nil for a recorded run")
	}
	return tl, c, tp, res
}

func TestBuildTimelineTracks(t *testing.T) {
	tl, c, _, res := meshRun(t)
	if len(tl.TBs) != len(c.Kernel.TBs) {
		t.Errorf("TB tracks = %d, want one per thread block (%d)", len(tl.TBs), len(c.Kernel.TBs))
	}
	if len(tl.Links) == 0 {
		t.Error("no link tracks")
	}
	if tl.Completion != res.Completion {
		t.Errorf("completion = %v, want %v", tl.Completion, res.Completion)
	}
	var slices int
	for _, tb := range tl.TBs {
		slices += len(tb.Slices)
	}
	if slices == 0 {
		t.Error("no TB slices recorded")
	}
}

func TestBuildTimelineNilResult(t *testing.T) {
	if tl := BuildTimeline("x", nil, nil, nil); tl != nil {
		t.Error("nil result should yield nil timeline")
	}
	if tl := BuildTimeline("x", nil, nil, &sim.Result{}); tl != nil {
		t.Error("empty timeline should yield nil")
	}
}

// TestChromeGolden renders the deterministic mesh run against a checked
// in golden file. Run with -update to regenerate after intentional
// format changes.
func TestChromeGolden(t *testing.T) {
	tl, _, _, _ := meshRun(t)
	tr := obs.NewTrace()
	tr.AddTimeline(tl)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace output is not valid JSON")
	}

	golden := filepath.Join("testdata", "mesh_allreduce_4.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/trace -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from golden file %s (len %d vs %d); regenerate with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// TestChromeDeterministic renders the same run twice and demands
// byte-identical output — the contract -trace-out relies on.
func TestChromeDeterministic(t *testing.T) {
	render := func() []byte {
		tl, _, _, _ := meshRun(t)
		tr := obs.NewTrace()
		tr.AddTimeline(tl)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("two identical runs produced different trace bytes")
	}
}

// meshSession is meshRun's kernel and payload as a concurrent-run
// session.
func meshSession(t *testing.T) (sim.Session, *topo.Topology, *sim.Result) {
	t.Helper()
	_, c, tp, res := meshRun(t)
	return sim.Session{Kernel: c.Kernel, BufferBytes: 8 << 20, ChunkBytes: 1 << 20}, tp, res
}

func TestLinkBusyGauges(t *testing.T) {
	se, tp, res := meshSession(t)
	m := obs.NewMetrics()
	if _, _, err := Simulate(sim.MultiConfig{Topo: tp, Sessions: []sim.Session{se}}, nil, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap.Gauges) != len(res.LinkBusy) {
		t.Errorf("gauges = %d, want one per busy link (%d)", len(snap.Gauges), len(res.LinkBusy))
	}
	for l, sec := range res.LinkBusy {
		name := "link.busy_seconds." + tp.DescribeResource(l)
		if got, ok := m.Gauge(name); !ok || got != sec {
			t.Errorf("gauge %q = %v (present %v), want %v", name, got, ok, sec)
		}
	}
}

// TestSimulate pins the recording contract of the one observed
// simulation: counters and timelines per session, accumulation across
// runs, and nothing recorded or changed when the sinks are nil.
func TestSimulate(t *testing.T) {
	se, tp, _ := meshSession(t)
	cfg := sim.MultiConfig{Topo: tp, Sessions: []sim.Session{se, se}, RecordTimeline: true}
	want, err := sim.RunConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, tr := obs.NewMetrics(), obs.NewTrace()
	mr, tls, err := Simulate(cfg, []string{"a", "b"}, m, tr, tr.StartSpan("execute", "sim"))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Completion != want.Completion || mr.Events != want.Events {
		t.Errorf("Simulate = %v s / %d events, sim.RunConcurrent = %v s / %d events",
			mr.Completion, mr.Events, want.Completion, want.Events)
	}
	instances := int64(mr.Sessions[0].Instances + mr.Sessions[1].Instances)
	k := mr.EventsByKind
	for name, v := range map[string]int64{
		"sim.runs": 1, "sim.events": int64(mr.Events), "sim.instances": instances,
		"sim.events.latency_done": int64(k.LatencyDone), "sim.events.data_done": int64(k.DataDone),
		"sim.events.stale_data_done": int64(k.StaleDataDone), "sim.events.fault": int64(k.Fault),
		"sim.flushes": int64(mr.Flushes),
	} {
		if got := m.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if k.LatencyDone == 0 || k.DataDone == 0 || mr.Flushes == 0 {
		t.Errorf("events by kind %+v, %d flushes: a run has latency and data events and re-solves rates", k, mr.Flushes)
	}
	if len(tls) != 2 || tls[0].Name != "a" || tls[1].Name != "b" {
		t.Fatalf("timelines = %v, want one per session named a, b", tls)
	}
	if got := tr.Timelines(); len(got) != 2 || got[0] != tls[0] || got[1] != tls[1] {
		t.Errorf("trace holds %d timelines, want the two returned", len(got))
	}
	if sp := tr.Spans(); len(sp) != 1 || sp[0].Name != "sim" {
		t.Errorf("spans = %v, want the one execute span, ended", sp)
	}

	if _, _, err := Simulate(cfg, []string{"a", "b"}, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sim.runs"); got != 2 {
		t.Errorf("sim.runs = %d after two runs, want 2", got)
	}
	if got := m.Counter("sim.instances"); got != 2*instances {
		t.Errorf("sim.instances = %d after two runs, want %d", got, 2*instances)
	}

	// Nil sinks: still the plain simulation, timelines only on request.
	cfg.RecordTimeline = false
	mr, tls, err = Simulate(cfg, nil, nil, nil, nil)
	if err != nil || tls != nil || mr.Completion != want.Completion {
		t.Errorf("nil sinks: completion %v, timelines %v, err %v", mr.Completion, tls, err)
	}
	if _, _, err := Simulate(sim.MultiConfig{Topo: tp}, nil, m, tr, nil); err == nil {
		t.Error("a run without sessions must fail")
	}
	if got := m.Counter("sim.runs"); got != 2 {
		t.Errorf("a failed run counted: sim.runs = %d, want 2", got)
	}
}
