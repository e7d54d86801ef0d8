package sim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// The event queue must pop in time order and, among equal times, in
// push order — the order a heap keyed on (time, push sequence) gives —
// also when pushes and pops interleave, times repeat and buckets are
// recycled.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := newEventQueue(4)
	type pushed struct {
		e   event
		seq int
	}
	var pending []pushed
	seq, now := 0, 0.0
	check := func() {
		t.Helper()
		sort.SliceStable(pending, func(i, j int) bool {
			if pending[i].e.time != pending[j].e.time {
				return pending[i].e.time < pending[j].e.time
			}
			return pending[i].seq < pending[j].seq
		})
		want := pending[0]
		pending = pending[1:]
		if got := q.pop(); got != want.e {
			t.Fatalf("got %+v, want %+v", got, want.e)
		}
		now = want.e.time
		if q.Len() != len(pending) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(pending))
		}
		if len(pending) > 0 && q.minTime() != pending[0].e.time {
			t.Fatalf("minTime = %v, want %v", q.minTime(), pending[0].e.time)
		}
	}
	for step := 0; step < 5000; step++ {
		if len(pending) == 0 || rng.Intn(3) > 0 {
			// Few distinct offsets, so times repeat, including "now".
			e := event{time: now + float64(rng.Intn(8)), arg: int32(seq), version: uint32(rng.Intn(5)), kind: uint8(rng.Intn(3))}
			q.push(e)
			pending = append(pending, pushed{e, seq})
			seq++
			continue
		}
		check()
	}
	for len(pending) > 0 {
		check()
	}
}

// tbState.advance must walk a TB's instructions in the order
// kernel.TBProgram.Instr numbers them, for both loop orders.
func TestAdvanceMatchesInstr(t *testing.T) {
	for _, order := range []kernel.MBOrder{kernel.TaskMajor, kernel.MBMajor} {
		for _, nSlots := range []int{1, 2, 5} {
			for _, nMB := range []int{1, 3, 4} {
				prog := &kernel.TBProgram{Order: order}
				tb := tbState{
					nInstr:    int32(nSlots * nMB),
					nSlots:    int32(nSlots),
					taskMajor: order == kernel.TaskMajor,
				}
				prog.Slots = make([]ir.Primitive, nSlots)
				for k := 0; ; k++ {
					slot, _ := prog.Instr(k, nMB)
					if int(tb.slot) != slot {
						t.Fatalf("order %v, %d slots, %d MBs: instruction %d at slot %d, want %d",
							order, nSlots, nMB, k, tb.slot, slot)
					}
					if !tb.advance(int32(nMB)) {
						if k+1 != nSlots*nMB {
							t.Fatalf("order %v, %d slots, %d MBs: retired after %d instructions", order, nSlots, nMB, k+1)
						}
						break
					}
				}
			}
		}
	}
}
