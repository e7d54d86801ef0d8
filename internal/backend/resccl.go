package backend

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/ir"
)

// ResCCL is the paper's backend: HPDS primitive-level scheduling,
// state-based flexible TB allocation, and directly generated lightweight
// kernels (no runtime interpreter).
type ResCCL struct {
	// Options tune the compiler pipeline; the zero value is the paper's
	// default configuration.
	Options core.Options
}

// NewResCCL returns a ResCCL backend with default options.
func NewResCCL() *ResCCL { return &ResCCL{} }

// Name implements Backend.
func (r *ResCCL) Name() string { return "ResCCL" }

// Compile implements Backend: one run of core.Compile, which checks
// ctx at every stage boundary and closes with the quick vet gate.
func (r *ResCCL) Compile(ctx context.Context, req Request) (*Plan, error) {
	if req.Algo == nil || req.Topo == nil {
		return nil, fmt.Errorf("resccl: request needs an algorithm and topology")
	}
	opts := r.Options
	if req.Protocol != ir.ProtoAuto {
		opts.Protocol = req.Protocol
	}
	c, err := core.Compile(ctx, req.Algo, req.Topo, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{Backend: r.Name(), Algo: req.Algo, Kernel: c.Kernel, Stages: c.Stages, Vet: c.Vet}, nil
}
