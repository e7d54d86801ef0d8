package train

import (
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/topo"
)

func backends() []backend.Backend {
	return []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()}
}

// T5 models train with pure data parallelism on two servers (§5.5).
func TestT5DataParallel(t *testing.T) {
	for _, m := range []ModelConfig{T5_220M, T5_770M, T5_3B} {
		cfg := Config{Model: m, GlobalBatch: 16, TP: 1, DP: 16, NNodes: 2, GPN: 8}
		res, err := Compare(cfg, backends()...)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for name, r := range res {
			if r.Throughput <= 0 {
				t.Errorf("%s/%s: nonpositive throughput", m.Name, name)
			}
			t.Logf("%s %s: %.2f samples/s (iter %.1f ms, comp %.1f ms, dp %.1f ms exposed %.1f ms)",
				m.Name, name, r.Throughput, r.IterTime*1e3, r.Compute*1e3, r.DPComm*1e3, r.ExposedDP*1e3)
		}
		if res["ResCCL"].Throughput <= res["NCCL"].Throughput {
			t.Errorf("%s: ResCCL (%.2f) not faster than NCCL (%.2f)", m.Name, res["ResCCL"].Throughput, res["NCCL"].Throughput)
		}
		if res["ResCCL"].Throughput <= res["MSCCL"].Throughput {
			t.Errorf("%s: ResCCL (%.2f) not faster than MSCCL (%.2f)", m.Name, res["ResCCL"].Throughput, res["MSCCL"].Throughput)
		}
	}
}

// GPT-3 models use tensor parallelism within servers.
func TestGPT3TensorParallel(t *testing.T) {
	cases := []struct {
		m     ModelConfig
		nodes int
		batch int
	}{
		{GPT3_6_7B, 2, 16},
		{GPT3_13B, 2, 16},
		{GPT3_22B, 4, 32},
		{GPT3_45B, 4, 32},
	}
	for _, c := range cases {
		cfg := Config{Model: c.m, GlobalBatch: c.batch, TP: 8, DP: c.nodes, NNodes: c.nodes, GPN: 8}
		res, err := Compare(cfg, backends()...)
		if err != nil {
			t.Fatalf("%s: %v", c.m.Name, err)
		}
		for name, r := range res {
			t.Logf("%s %s: %.3f samples/s (iter %.0f ms, comp %.0f ms, tp %.0f ms, dpExposed %.0f ms)",
				c.m.Name, name, r.Throughput, r.IterTime*1e3, r.Compute*1e3, r.TPComm*1e3, r.ExposedDP*1e3)
		}
		if res["ResCCL"].Throughput <= res["NCCL"].Throughput {
			t.Errorf("%s: ResCCL not faster than NCCL", c.m.Name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Simulate(Config{Model: T5_220M, GlobalBatch: 16, TP: 3, DP: 5, NNodes: 2, GPN: 8}, backend.NewResCCL()); err == nil {
		t.Error("expected TP*DP mismatch error")
	}
	if _, err := Simulate(Config{Model: T5_220M, GlobalBatch: 0, TP: 1, DP: 16, NNodes: 2, GPN: 8}, backend.NewResCCL()); err == nil {
		t.Error("expected batch error")
	}
	if _, err := Simulate(Config{Model: GPT3_13B, GlobalBatch: 16, TP: 4, DP: 4, NNodes: 2, GPN: 8}, backend.NewResCCL()); err == nil {
		t.Error("expected TP-span error")
	}
}

// The SM-contention term (§1): MSCCL's larger TB footprint must cost
// more overlapped-compute time than ResCCL's.
func TestSMContention(t *testing.T) {
	cfg := Config{Model: T5_3B, GlobalBatch: 16, TP: 1, DP: 16, NNodes: 2, GPN: 8}
	res, err := Compare(cfg, backends()...)
	if err != nil {
		t.Fatal(err)
	}
	if res["ResCCL"].CommTBs >= res["MSCCL"].CommTBs {
		t.Errorf("ResCCL TBs (%d) should undercut MSCCL (%d)", res["ResCCL"].CommTBs, res["MSCCL"].CommTBs)
	}
	if res["ResCCL"].SMPenalty >= res["MSCCL"].SMPenalty {
		t.Errorf("ResCCL SM penalty (%g) should undercut MSCCL (%g)",
			res["ResCCL"].SMPenalty, res["MSCCL"].SMPenalty)
	}
	for name, r := range res {
		if r.SMPenalty < 0 {
			t.Errorf("%s: negative SM penalty", name)
		}
	}
}

// The clean probe run only sets the horizon of a generated fault
// schedule: an explicit schedule runs the collective once, a fault rate
// probes first and then reruns it faulted.
func TestFaultProbeRuns(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	spec := &fault.Schedule{Events: []fault.Event{fault.NICFlap(tp, 0, 0, 1e-3)}}
	for _, c := range []struct {
		name string
		rate int
		spec *fault.Schedule
		runs int64
	}{
		{"clean", 0, nil, 1},
		{"spec", 0, spec, 1},
		{"rate", 2, nil, 2},
	} {
		m := obs.NewMetrics()
		cfg := Config{Model: T5_220M, GlobalBatch: 16, TP: 1, DP: 16, NNodes: 2, GPN: 8,
			FaultRate: c.rate, Faults: c.spec, Metrics: m}
		if _, err := Simulate(cfg, backend.NewResCCL()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.Counter("sim.runs"); got != c.runs {
			t.Errorf("%s: sim.runs = %d, want %d", c.name, got, c.runs)
		}
	}
}
