package kernel_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// FuzzLoadPlan treats plan files as the untrusted input they are: Load
// must never panic, and any kernel it accepts must pass Validate and
// run through the static analyzer without a panic or an operational
// error. The corpus is seeded with a saved 1×4 ring AllReduce plan.
func FuzzLoadPlan(f *testing.F) {
	algo, err := expert.RingAllReduce(4)
	if err != nil {
		f.Fatal(err)
	}
	tp := topo.New(1, 4, topo.A100())
	c, err := core.Compile(context.Background(), algo, tp, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kernel.Save(c.Kernel, tp, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version": 1, "topology": {"nNodes": 1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, _, err := kernel.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := kernel.Validate(k); err != nil {
			t.Fatalf("Load returned a kernel that fails Validate: %v", err)
		}
		if _, err := analyze.Plan(k, analyze.Options{}); err != nil {
			t.Fatalf("analyzer returned an operational error on a loaded plan: %v", err)
		}
	})
}
