package sim

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/topo"
)

// BenchmarkLargeAllReduce exercises the simulator's hot path: a 32-rank
// HM AllReduce of 1 GiB on the MSCCL backend (heaviest contention).
func BenchmarkLargeAllReduce(b *testing.B) {
	tp := topo.New(4, 8, topo.A100())
	algo, err := expert.HMAllReduce(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := backend.NewMSCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 1 << 30, ChunkBytes: 1 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRailScale exercises the per-instance path at scale: a 512-rank
// hierarchical AllReduce of 64 MiB in 1 MiB chunks on a rail fabric, where
// readiness checks, link bookkeeping and the event heap dominate and the
// max-min solver's components stay small.
func BenchmarkRailScale(b *testing.B) {
	tp := topo.NewRail(64, 8, topo.A100(), 8)
	algo, err := expert.Build("hier-allreduce", 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}
