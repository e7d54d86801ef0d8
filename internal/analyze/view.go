package analyze

import (
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// occ locates one primitive occurrence inside the kernel: TB index (into
// Kernel.TBs, not TB ID, which a corrupt plan may duplicate) and slot.
type occ struct {
	tb, slot int
}

// planView indexes a kernel for the analysis passes. It is built once
// per Plan call and never mutates the kernel. All indexing tolerates
// corrupt plans: out-of-range task IDs simply do not appear in the
// occurrence tables.
type planView struct {
	k *kernel.Kernel
	g *dag.Graph

	// sendOcc[t] / recvOcc[t] list the occurrences of task t's send and
	// recv primitives across all TBs, in (TB index, slot) order. A valid
	// kernel has exactly one of each; mutants may have zero or several.
	sendOcc, recvOcc [][]occ
}

func newPlanView(k *kernel.Kernel) *planView {
	v := &planView{
		k:       k,
		g:       k.Graph,
		sendOcc: make([][]occ, len(k.Graph.Tasks)),
		recvOcc: make([][]occ, len(k.Graph.Tasks)),
	}
	for tbi, tb := range k.TBs {
		for s, prim := range tb.Slots {
			t := int(prim.Task.ID)
			if t < 0 || t >= len(v.sendOcc) {
				continue
			}
			if prim.Kind == ir.PrimSend {
				v.sendOcc[t] = append(v.sendOcc[t], occ{tbi, s})
			} else {
				v.recvOcc[t] = append(v.recvOcc[t], occ{tbi, s})
			}
		}
	}
	return v
}

// subTasks reconstructs the scheduler's sub-pipeline partition from the
// kernel's echoed TaskSub/TaskPos tables. Baseline kernels carry no
// schedule echo, and mutants may corrupt it; nil means the pipeline
// lints cannot run.
func (v *planView) subTasks() [][]ir.TaskID {
	k := v.k
	if len(k.TaskSub) != len(v.g.Tasks) || len(k.TaskPos) != len(v.g.Tasks) {
		return nil
	}
	nSubs := 0
	for _, s := range k.TaskSub {
		if s+1 > nSubs {
			nSubs = s + 1
		}
	}
	if nSubs == 0 {
		return nil
	}
	subs := make([][]ir.TaskID, nSubs)
	// Tasks enter their sub in global position order, matching how the
	// scheduler emitted them. Order within a sub follows TaskPos; an
	// insertion sort keeps the common already-sorted case linear.
	for t, s := range k.TaskSub {
		if s < 0 {
			continue // unscheduled: the invariant coverage check reports it
		}
		subs[s] = append(subs[s], ir.TaskID(t))
	}
	for _, sub := range subs {
		for i := 1; i < len(sub); i++ {
			for j := i; j > 0 && k.TaskPos[sub[j]] < k.TaskPos[sub[j-1]]; j-- {
				sub[j], sub[j-1] = sub[j-1], sub[j]
			}
		}
	}
	return subs
}

// posOrder returns the kernel's tasks in the global pipeline order its
// TaskPos table echoes, or nil when the kernel carries no order
// (baseline kernels) or the table does not cover the task set.
func posOrder(k *kernel.Kernel) []ir.TaskID {
	n := len(k.Graph.Tasks)
	if len(k.TaskPos) != n || n == 0 {
		return nil
	}
	order := make([]ir.TaskID, n)
	for t := range order {
		order[t] = ir.TaskID(t)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return k.TaskPos[order[i]] < k.TaskPos[order[j]]
	})
	return order
}

// describeTask renders a task for diagnostics: its transfer tuple when
// the ID resolves, the bare ID otherwise.
func (v *planView) describeTask(t ir.TaskID) string {
	if int(t) >= 0 && int(t) < len(v.g.Tasks) {
		tr := v.g.Tasks[t].Transfer
		return fmt.Sprintf("task %d (%d→%d chunk %d step %d)", t, tr.Src, tr.Dst, tr.Chunk, tr.Step)
	}
	return fmt.Sprintf("task %d (unknown)", t)
}

// checkStructure is the analyzer's tolerant mirror of kernel.Validate:
// the same invariants, but every violation becomes a diagnostic instead
// of aborting at the first, and slot aliasing — a slot whose embedded
// transfer disagrees with the task table for its claimed ID — is caught
// explicitly rather than surfacing later as a data corruption.
func checkStructure(v *planView) []Diag {
	var ds []Diag
	k, g := v.k, v.g
	if !k.Protocol.Valid() {
		ds = append(ds, Diag{Code: "protocol", Severity: SevError,
			Message: fmt.Sprintf("undefined protocol tier %d (want auto, LL, LL128 or Simple)", int(k.Protocol))})
	}
	if len(k.SendTB) != len(g.Tasks) || len(k.RecvTB) != len(g.Tasks) {
		ds = append(ds, Diag{Code: "structure", Severity: SevError,
			Message: fmt.Sprintf("task/TB table size mismatch: %d send, %d recv entries for %d tasks",
				len(k.SendTB), len(k.RecvTB), len(g.Tasks))})
		return ds
	}
	for _, tb := range k.TBs {
		if len(tb.Slots) == 0 {
			ds = append(ds, Diag{Code: "structure", Severity: SevWarn,
				Message: fmt.Sprintf("TB %d (%s) has no slots", tb.ID, tb.Label)})
		}
		for s, prim := range tb.Slots {
			t := prim.Task.ID
			if int(t) < 0 || int(t) >= len(g.Tasks) {
				ds = append(ds, Diag{Code: "structure", Severity: SevError,
					Message: fmt.Sprintf("TB %d slot %d references unknown task %d", tb.ID, s, t)})
				continue
			}
			if prim.Task.Transfer != g.Tasks[t].Transfer {
				ds = append(ds, Diag{Code: "slot-alias", Severity: SevError,
					Message: fmt.Sprintf("TB %d slot %d claims task %d but carries %v, task table says %v",
						tb.ID, s, t, prim.Task.Transfer, g.Tasks[t].Transfer),
					Tasks: []ir.TaskID{t}})
			}
			if prim.Rank != tb.Rank {
				ds = append(ds, Diag{Code: "structure", Severity: SevError,
					Message: fmt.Sprintf("TB %d on rank %d holds primitive for rank %d (%s)",
						tb.ID, tb.Rank, prim.Rank, v.describeTask(t)),
					Tasks: []ir.TaskID{t}})
			}
			switch prim.Kind {
			case ir.PrimSend:
				if k.SendTB[t] != tb.ID {
					ds = append(ds, Diag{Code: "structure", Severity: SevError,
						Message: fmt.Sprintf("%s: send primitive in TB %d, table says %d",
							v.describeTask(t), tb.ID, k.SendTB[t]),
						Tasks: []ir.TaskID{t}})
				}
			case ir.PrimRecv, ir.PrimRecvReduceCopy:
				if k.RecvTB[t] != tb.ID {
					ds = append(ds, Diag{Code: "structure", Severity: SevError,
						Message: fmt.Sprintf("%s: recv primitive in TB %d, table says %d",
							v.describeTask(t), tb.ID, k.RecvTB[t]),
						Tasks: []ir.TaskID{t}})
				}
			default:
				ds = append(ds, Diag{Code: "structure", Severity: SevError,
					Message: fmt.Sprintf("TB %d slot %d has unknown primitive kind %d", tb.ID, s, int(prim.Kind)),
					Tasks:   []ir.TaskID{t}})
			}
		}
	}
	for t := range g.Tasks {
		ns, nr := len(v.sendOcc[t]), len(v.recvOcc[t])
		if ns != 1 || nr != 1 {
			ds = append(ds, Diag{Code: "structure", Severity: SevError,
				Message: fmt.Sprintf("%s has %d send / %d recv primitives (want 1/1)",
					v.describeTask(ir.TaskID(t)), ns, nr),
				Tasks: []ir.TaskID{ir.TaskID(t)}})
		}
	}
	for t, preds := range k.LinkPreds {
		for _, p := range preds {
			if int(p) < 0 || int(p) >= len(g.Tasks) || int(p) == t {
				ds = append(ds, Diag{Code: "structure", Severity: SevError,
					Message: fmt.Sprintf("task %d has invalid link predecessor %d", t, p),
					Tasks:   []ir.TaskID{ir.TaskID(t), p}})
			}
		}
	}
	return ds
}
