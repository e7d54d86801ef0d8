package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuNow reads the process's CPU clock: the CPU time all its threads
// have used, in user and kernel mode. Host times are measured on this
// clock rather than the wall clock because it does not advance while
// the hypervisor runs other guests on the VM's cores (steal time): on
// a 2-vCPU VM where steal took 15–32% of the VM's time per 3-second
// window, the same compile and simulation took 57–95 ms of wall time
// but 55–65 ms of CPU time. A call's CPU time includes the runtime's
// concurrent work during it (garbage collection, and the plan cache's
// detached compile).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuSince returns the process CPU time used since start, a cpuNow
// reading.
func cpuSince(start time.Duration) time.Duration { return cpuNow() - start }

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak tracks the largest live heap seen at phase boundaries:
// HeapAlloc right after a forced collection, so a sample measures what
// the workload holds (plans, caches, service state) and not how much
// garbage happened to await the collector. Callers sample outside
// their timed regions.
type heapPeak struct{ max uint64 }

func (h *heapPeak) sample() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.max {
		h.max = m.HeapAlloc
	}
}

func (h *heapPeak) mb() float64 { return float64(h.max) / (1 << 20) }

// allocDelta measures the runtime's allocation volume and GC cycles
// over a traced pass.
type allocDelta struct{ start runtime.MemStats }

func startAllocDelta() *allocDelta {
	a := &allocDelta{}
	runtime.ReadMemStats(&a.start)
	return a
}

func (a *allocDelta) record(r *report) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.set("runtime.alloc_mb", float64(end.TotalAlloc-a.start.TotalAlloc)/(1<<20))
	r.set("runtime.gc_cycles", float64(end.NumGC-a.start.NumGC))
}

// overheadPct is the traced pass's extra host time over the untraced
// pass of the same inputs, in percent.
func overheadPct(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// medianTime runs f n times and returns its median duration and the
// first error.
func medianTime(n int, f func() error) (time.Duration, error) {
	var times []float64
	for i := 0; i < n; i++ {
		start := cpuNow()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(cpuSince(start)))
	}
	return time.Duration(median(times)), nil
}
