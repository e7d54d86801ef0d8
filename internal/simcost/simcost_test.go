package simcost

import (
	"math"
	"testing"

	"github.com/resccl/resccl/internal/ir"
)

func TestPlanFor(t *testing.T) {
	p := PlanFor(4<<30, 1<<20, 32)
	if p.NMicroBatches != 128 {
		t.Errorf("4GiB/32 chunks: n = %d, want 128", p.NMicroBatches)
	}
	if p.ChunkBytes != 1<<20 {
		t.Errorf("chunk = %f, want 1MiB", p.ChunkBytes)
	}
	// Small buffers shrink the chunk, not drop below one micro-batch.
	p = PlanFor(8<<20, 1<<20, 32)
	if p.NMicroBatches != 1 {
		t.Errorf("8MiB/32 chunks: n = %d, want 1", p.NMicroBatches)
	}
	if p.ChunkBytes != (8<<20)/32 {
		t.Errorf("chunk = %f, want 256KiB", p.ChunkBytes)
	}
	// Degenerate inputs stay safe.
	p = PlanFor(0, 0, 4)
	if p.NMicroBatches < 1 || p.ChunkBytes <= 0 {
		t.Errorf("degenerate plan: %+v", p)
	}
}

// Params must keep the tier ordering the cost model relies on: LL pays
// the least startup and carries the least payload per wire byte, Simple
// the reverse, and auto is exactly Simple.
func TestProtocolParamsOrdering(t *testing.T) {
	ll, ll128, simple := Params(ir.ProtoLL), Params(ir.ProtoLL128), Params(ir.ProtoSimple)
	if !(ll.AlphaFactor < ll128.AlphaFactor && ll128.AlphaFactor < simple.AlphaFactor) {
		t.Errorf("alpha factors not increasing: %v %v %v", ll.AlphaFactor, ll128.AlphaFactor, simple.AlphaFactor)
	}
	if !(ll.BWFactor < ll128.BWFactor && ll128.BWFactor < simple.BWFactor) {
		t.Errorf("bandwidth factors not increasing: %v %v %v", ll.BWFactor, ll128.BWFactor, simple.BWFactor)
	}
	if simple.BWFactor != 1 || simple.AlphaFactor != 1 || simple.MaxChunkBytes != 0 {
		t.Errorf("Simple must be the identity, got %+v", simple)
	}
	if Params(ir.ProtoAuto) != simple {
		t.Errorf("auto params %+v differ from Simple %+v", Params(ir.ProtoAuto), simple)
	}
	if got := ll.EffectiveChunk(1 << 20); got != ll.MaxChunkBytes {
		t.Errorf("LL effective chunk for 1MiB = %d, want cap %d", got, ll.MaxChunkBytes)
	}
	if got := simple.EffectiveChunk(0); got != 1<<20 {
		t.Errorf("Simple effective chunk for 0 = %d, want 1MiB default", got)
	}
}

// InstanceCost is the one α–β instance price every analytic model
// shares; Simple must reproduce the bare α + c/TBCap bit for bit so the
// callers that price under Simple keep their exact figures.
func TestInstanceCost(t *testing.T) {
	// Variables, not constants: constant expressions are evaluated
	// exactly at compile time and would not round like run-time float64
	// arithmetic.
	var (
		alpha = 2.7e-6
		tbCap = 23.5e9
		chunk = 786432.0
	)
	cases := []struct {
		name  string
		proto ir.Protocol
		tbCap float64
		want  float64
		exact bool
	}{
		{"simple", ir.ProtoSimple, tbCap, alpha + chunk/tbCap, true},
		{"ll", ir.ProtoLL, tbCap, 0.2*alpha + 2*chunk/tbCap, false},
		{"zero-cap", ir.ProtoLL128, 0, alpha * Params(ir.ProtoLL128).AlphaFactor, true},
		{"negative-cap", ir.ProtoLL, -1, alpha * Params(ir.ProtoLL).AlphaFactor, true},
	}
	for _, c := range cases {
		got := Params(c.proto).InstanceCost(alpha, c.tbCap, chunk)
		if c.exact && got != c.want {
			t.Errorf("%s: InstanceCost = %v, want exactly %v", c.name, got, c.want)
		}
		if !c.exact && math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("%s: InstanceCost = %v, want %v", c.name, got, c.want)
		}
	}
}
