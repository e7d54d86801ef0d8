// Package sim is the flow-level discrete-event simulator that stands in
// for the GPU cluster: thread blocks are serial actors executing kernel
// programs, chunk transfers are flows that share link bandwidth max-min
// with the paper's Eq. 1 contention penalty, and all the ordering
// semantics of the three execution strategies (§3) emerge from the
// kernel's slot order, data dependencies and link predecessors.
//
// Several kernels can run concurrently as independent sessions sharing
// the fabric (RunConcurrent) — the substrate for simulating
// data-parallel process groups and multi-tenant contention.
//
// The simulator is deterministic: identical inputs produce identical
// timings, which the experiment harness and golden tests rely on.
package sim

import (
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Config parameterises a single-kernel simulation run.
type Config struct {
	Topo   *topo.Topology
	Kernel *kernel.Kernel
	// BufferBytes is the per-rank payload S the collective synchronises.
	BufferBytes int64
	// ChunkBytes is the target transfer chunk size (the paper fixes
	// 1 MiB). The effective chunk shrinks for small buffers so at least
	// one micro-batch exists.
	ChunkBytes int64
	// Congestion maps links to the fraction of their capacity consumed
	// by background traffic from other jobs (§4.4's network-contention
	// scenario). A congested link both loses capacity and reaches its
	// Eq. 1 contention regime sooner.
	Congestion map[topo.ResourceID]float64
	// Faults is an optional deterministic fault schedule (link
	// degradation/outage windows, NIC flaps, straggler TBs) applied
	// while the run executes — the time-varying generalisation of
	// Congestion. Nil or empty injects nothing and leaves timings
	// bit-identical to a fault-free run.
	Faults *fault.Schedule
	// RecordTimeline captures per-TB busy segments for Gantt rendering
	// (trace.RenderTimeline). Off by default: large runs produce many
	// segments.
	RecordTimeline bool
	// FullResolve disables the coalesced incremental rate solver and
	// re-solves max-min rates eagerly after every event — the retained
	// reference implementation. Timings are bit-identical either way
	// (the equivalence property test enforces it); the reference path
	// exists for debugging and as the oracle in that test, not for
	// production use.
	FullResolve bool
}

// Session is one kernel participating in a concurrent run.
type Session struct {
	Kernel      *kernel.Kernel
	BufferBytes int64
	ChunkBytes  int64
}

// MultiConfig parameterises a concurrent multi-session run. Every
// session's kernel must target the same topology.
type MultiConfig struct {
	Topo           *topo.Topology
	Sessions       []Session
	Congestion     map[topo.ResourceID]float64
	Faults         *fault.Schedule
	RecordTimeline bool
	// FullResolve selects the eager per-event reference rate solver; see
	// Config.FullResolve.
	FullResolve bool
}

// InstanceSpan records one executed task invocation when the run is
// configured with RecordTimeline: which task, which micro-batch, when it
// ran (startup + data phase), which TBs drove it and which links it
// crossed. Spans are appended in completion order, which is
// deterministic.
type InstanceSpan struct {
	// Task is the task's index within its session's graph.
	Task ir.TaskID
	// MB is the micro-batch invocation index.
	MB int
	// Src and Dst are the transfer endpoints.
	Src, Dst ir.Rank
	// SendTB and RecvTB are the kernel-local thread-block IDs that
	// executed the primitive pair.
	SendTB, RecvTB int
	// Start and End bound the instance (startup latency + data phase) in
	// simulated seconds.
	Start, End float64
	// Links are the communication links the transfer occupied (shared
	// with the kernel graph; treat as read-only).
	Links []topo.LinkID
}

// TBStats reports one thread block's lifecycle.
type TBStats struct {
	ID    int
	Rank  ir.Rank
	Label string
	// Segments holds merged busy intervals [start,end) when the run was
	// configured with RecordTimeline.
	Segments [][2]float64
	// FirstArrival is when the TB issued its first primitive; Release is
	// when it retired its last.
	FirstArrival, Release float64
	// Exec is time spent driving transfers (latency + data phases);
	// Sync is time spent blocked waiting for peers, dependencies or
	// link turns.
	Exec, Sync float64
	// Slots is the TB's primitive count.
	Slots int
}

// Result is the outcome of a single-kernel simulation.
type Result struct {
	// Completion is the collective's total time in seconds.
	Completion float64
	// AlgoBW is BufferBytes / Completion — the "algorithm bandwidth"
	// metric of §5.2, in bytes/s.
	AlgoBW float64
	// Plan echoes the derived micro-batch geometry.
	Plan simcost.Plan
	// TBs has one entry per thread block.
	TBs []TBStats
	// LinkBusy maps every communication link that carried traffic to
	// its busy time (≥1 transfer committed).
	LinkBusy map[topo.LinkID]float64
	// Instances is the number of task invocations executed.
	Instances int
	// Events is the total number of discrete events the simulator
	// processed over the whole run (shared across sessions in a
	// concurrent run) — the harness's throughput denominator.
	Events int
	// Faults lists the fault windows the simulator applied (opened)
	// during the run, in firing order. Empty for fault-free runs.
	Faults []FaultEvent
	// Timeline holds one record per executed task instance when the run
	// was configured with RecordTimeline, in completion order.
	Timeline []InstanceSpan
}

// MultiResult is the outcome of a concurrent run.
type MultiResult struct {
	// Completion is when the last session finished.
	Completion float64
	// Sessions holds one Result per session, in input order; each
	// session's Completion is its own finish time.
	Sessions []*Result
	// LinkBusy aggregates busy time over all sessions.
	LinkBusy map[topo.LinkID]float64
	// Events is the total number of discrete events processed.
	Events int
	// EventsByKind splits Events by what each event did.
	EventsByKind EventCounts
	// Flushes counts the deferred rate re-solves: one per timestamp at
	// which some resource's flow set or capacity changed. Zero under
	// FullResolve, which re-solves eagerly instead.
	Flushes int
	// Faults lists the applied fault windows, shared across sessions.
	Faults []FaultEvent
}

// EventCounts splits a run's processed events by kind; the four fields
// sum to the run's Events.
type EventCounts struct {
	// LatencyDone events end an instance's startup phase and start its
	// data phase.
	LatencyDone int
	// DataDone events complete an instance.
	DataDone int
	// StaleDataDone events were superseded by a rate change that
	// rescheduled the flow's completion, and did nothing. Their share is
	// the part of the event heap that rate changes, not instances, put
	// there.
	StaleDataDone int
	// Fault events fire fault-schedule boundaries.
	Fault int
}

// MeanLinkUtilization returns the average busy fraction over links that
// carried traffic — Table 1's "global link utilization".
func (r *Result) MeanLinkUtilization() float64 {
	if len(r.LinkBusy) == 0 || r.Completion <= 0 {
		return 0
	}
	// Sum in sorted link order: float addition is order-sensitive, and
	// map iteration order would leak into the reported utilization.
	links := make([]topo.LinkID, 0, len(r.LinkBusy))
	for l := range r.LinkBusy { //resccl:allow mapiter
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	sum := 0.0
	for _, l := range links {
		sum += r.LinkBusy[l]
	}
	return sum / (float64(len(r.LinkBusy)) * r.Completion)
}

// Run simulates a single kernel to completion.
func Run(cfg Config) (*Result, error) {
	if cfg.Topo == nil || cfg.Kernel == nil {
		return nil, fmt.Errorf("sim: nil topology or kernel")
	}
	mr, err := RunConcurrent(MultiConfig{
		Topo:           cfg.Topo,
		Sessions:       []Session{{Kernel: cfg.Kernel, BufferBytes: cfg.BufferBytes, ChunkBytes: cfg.ChunkBytes}},
		Congestion:     cfg.Congestion,
		Faults:         cfg.Faults,
		RecordTimeline: cfg.RecordTimeline,
		FullResolve:    cfg.FullResolve,
	})
	if err != nil {
		return nil, err
	}
	return mr.Sessions[0], nil
}

// RunConcurrent simulates several kernels sharing the fabric.
func RunConcurrent(cfg MultiConfig) (*MultiResult, error) {
	if cfg.Topo == nil || len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("sim: concurrent run needs a topology and at least one session")
	}
	for i, se := range cfg.Sessions {
		if se.Kernel == nil {
			return nil, fmt.Errorf("sim: session %d has no kernel", i)
		}
		if se.Kernel.Graph.Algo.NRanks != cfg.Topo.NRanks() {
			return nil, fmt.Errorf("sim: session %d kernel targets %d ranks, topology has %d",
				i, se.Kernel.Graph.Algo.NRanks, cfg.Topo.NRanks())
		}
	}
	s := newSim(cfg)
	if !cfg.Faults.Empty() {
		fs, err := newFaultState(cfg.Faults, s)
		if err != nil {
			return nil, err
		}
		s.fault = fs
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// event kinds.
const (
	evLatencyDone = iota
	evDataDone
	// evFault fires a fault-schedule boundary (fault.go); the event's
	// argument is the boundary index.
	evFault
)

// gid is a global task index across sessions.
type gid = int32

// event is one scheduled occurrence, as the queue (queue.go) takes and
// returns it.
type event struct {
	time float64
	// arg is the task's global id, or the fault boundary's index.
	arg int32
	// version guards stale data-done events after rate changes: the
	// event is live only while it matches its task's version.
	version uint32
	kind    uint8
}

// tbState is one thread block's execution state. It holds no pointers,
// so the collector never scans the array; the program is the session
// kernel's TBs[id - tbOff].
type tbState struct {
	sess int32
	// task is the global id of the pending instruction's task, set by
	// arrive; -1 once the TB retired.
	task gid
	// next counts issued instructions; the TB retires at nInstr.
	next, nInstr int32
	// slot and mb locate the pending instruction in the TB's loop order
	// (kernel.TBProgram.Instr), advanced in step with next so no
	// instruction is ever decoded by division. slotOff locates the TB's
	// rows in sim.slotTask.
	slot, mb, nSlots, slotOff int32
	taskMajor                 bool
	done                      bool
	// arrival is when the TB reached its current instruction.
	arrival float64
	// started is when the current instance began transferring.
	started float64

	firstArrival float64
	release      float64
	exec, sync   float64
}

// taskReady is the part of a task's state that readiness checks read:
// the dependency and wake paths touch it for tasks other than the one
// finishing, so it is kept apart from taskState and small enough that
// those scattered reads stay in cache.
type taskReady struct {
	// doneMB is the number of completed micro-batch invocations; the
	// pending invocation is always index doneMB (strict serial order).
	doneMB int32
	// depsDone counts the task's data dependencies that are past its
	// pending invocation (their doneMB exceeds this task's); the
	// dependencies are met when it reaches nDeps. predsDone counts link
	// predecessors that drained every invocation, against nPreds.
	depsDone, nDeps   int32
	predsDone, nPreds int32
	// sendArr/recvArr mark that the task's TBs have arrived at the
	// pending invocation.
	sendArr, recvArr bool
	inFlight         bool
}

// taskState is the rest of a task's state; the task's index in its
// session's graph is its global id less the session's taskOff.
type taskState struct {
	sess int32
	// sendTB/recvTB are the global ids of the task's two thread blocks.
	sendTB, recvTB int32
	// The task's data dependencies (taskReady.nDeps of them), its
	// dependents and its link successors (tasks whose LinkPreds include
	// it), as global ids, are consecutive windows of sim.adj starting at
	// adjOff.
	adjOff, nDependents, nSucc int32
	// flow state while in the data phase.
	active     bool
	version    uint32
	remaining  float64
	rate       float64
	lastUpdate float64
	cap        float64
	alpha      float64
	resources  []topo.ResourceID
}

// session holds one kernel's execution state within a concurrent run.
type session struct {
	k      *kernel.Kernel
	plan   simcost.Plan
	nMB    int32
	buffer int64
	interp float64
	// wire inflates each chunk's payload bytes to wire bytes under the
	// kernel's protocol tier (1/BWFactor): LL moves two wire bytes per
	// payload byte, so capacities and TB capabilities stay expressed in
	// wire bytes and cross-tier contention remains physical.
	wire float64
	// taskOff/tbOff map local ids into the global arrays.
	taskOff gid
	tbOff   int
	nTasks  int
	nTBs    int

	doneTBs    int
	instances  int
	completion float64

	// mbRemaining[i] counts unfinished task invocations of micro-batch
	// i when the kernel runs with a per-micro-batch barrier.
	mbRemaining []int
	mbReleased  int32

	// timeline accumulates per-instance spans under RecordTimeline.
	timeline []InstanceSpan
}

type sim struct {
	cfg  MultiConfig
	topo *topo.Topology

	sessions []*session

	now    float64
	events eventQueue

	tbs   []tbState
	tasks []taskState
	ready []taskReady
	// slotTask[tb.slotOff+slot] is the global id of the task behind the
	// TB's slot, shifted left once, with the low bit set for a send
	// primitive.
	slotTask []int32
	// adj holds every task's adjacency lists (taskState.adjOff); one
	// contiguous arena keeps a finishing task's wake-ups in one or two
	// cache lines.
	adj []gid

	// Active-flow membership per resource, stored as a CSR arena sized
	// from the plans at construction: resource r's active flows live in
	// resArena[resSlot[r] : resSlot[r]+resCnt[r]], with capacity equal to
	// the number of tasks whose path crosses r (a task has at most one
	// in-flight instance, so that bound is exact). Joining and leaving a
	// resource is a write/swap-remove into the arena — no slice growth,
	// no per-resource headers.
	resArena []gid
	resSlot  []int32
	resCnt   []int32
	// resBusy accounting.
	resBusy      []float64
	resActiveCnt []int32
	resBusyStart []float64
	// linkUsed[l] marks communication links that carried a transfer.
	linkUsed []bool
	// segments[tb] holds TB tb's merged [start,end) busy intervals when
	// timeline recording is enabled (nil otherwise).
	segments [][][2]float64

	// Deferred-solve state (rates.go): resources perturbed at the
	// current timestamp, deduplicated by a generation mark, plus the
	// per-flush component-coverage marks. fullResolve switches to the
	// eager reference solver.
	dirtySeeds  []topo.ResourceID
	dirtyMark   []int32
	dirtyGen    int32
	coveredMark []int32
	coveredGen  int32
	seedOne     [1]topo.ResourceID
	fullResolve bool

	doneTBs int
	// processed counts events handled by run(), split by kind in
	// counts; flushes counts rate flushes that re-solved something.
	processed int
	counts    EventCounts
	flushes   int

	// scratch holds the allocation-free working state of the rate
	// computation (rates.go).
	scratch rateScratch

	// congestion[r] is the capacity fraction lost to background traffic
	// (nil when the run is uncongested).
	congestion []float64

	// fault holds the time-varying fault engine, nil for fault-free runs
	// — every fault code path is gated on it so fault-free timings stay
	// bit-identical.
	fault *faultState
}

func newSim(cfg MultiConfig) *sim {
	t := cfg.Topo
	nRes := t.NResources()
	s := &sim{
		cfg:          cfg,
		topo:         t,
		resBusy:      make([]float64, nRes),
		resActiveCnt: make([]int32, nRes),
		resBusyStart: make([]float64, nRes),
		linkUsed:     make([]bool, nRes),
		dirtyMark:    make([]int32, nRes),
		coveredMark:  make([]int32, nRes),
		dirtyGen:     1,
		coveredGen:   0,
		fullResolve:  cfg.FullResolve,
	}
	if len(cfg.Congestion) > 0 {
		s.congestion = make([]float64, nRes)
		// Map→slice copy keyed by resource index: order-independent.
		for r, f := range cfg.Congestion { //resccl:allow mapiter
			if f < 0 {
				f = 0
			}
			if f > 0.95 {
				f = 0.95
			}
			s.congestion[r] = f
		}
	}
	totalTasks, totalTBs, totalSlots, totalAdj := 0, 0, 0, 0
	for _, sc := range cfg.Sessions {
		g := sc.Kernel.Graph
		totalTasks += len(g.Tasks)
		totalTBs += len(sc.Kernel.TBs)
		for _, prog := range sc.Kernel.TBs {
			totalSlots += len(prog.Slots)
		}
		for i := range g.Tasks {
			totalAdj += len(g.Deps[i]) + len(g.Dependents[i])
		}
		for _, preds := range sc.Kernel.LinkPreds {
			totalAdj += len(preds)
		}
	}
	s.tasks = make([]taskState, totalTasks)
	s.ready = make([]taskReady, totalTasks)
	s.tbs = make([]tbState, totalTBs)
	s.slotTask = make([]int32, totalSlots)
	if cfg.RecordTimeline {
		s.segments = make([][][2]float64, totalTBs)
	}
	s.adj = make([]gid, totalAdj)
	// Each in-flight instance holds one live event and drives two TBs.
	s.events = newEventQueue(totalTBs/2 + 16)

	taskOff, tbOff, slotOff, adjOff := gid(0), 0, 0, int32(0)
	for si, sc := range cfg.Sessions {
		k := sc.Kernel
		// The kernel's protocol tier shapes the session's micro-batch
		// geometry (chunk cap), startup latency (α factor) and wire-byte
		// inflation (bandwidth factor). ProtoAuto/ProtoSimple are the
		// identity on all three.
		params := simcost.Params(k.Protocol)
		se := &session{
			k:       k,
			plan:    simcost.PlanFor(sc.BufferBytes, params.EffectiveChunk(sc.ChunkBytes), k.Graph.Algo.NChunks),
			buffer:  sc.BufferBytes,
			wire:    1 / params.BWFactor,
			taskOff: taskOff,
			tbOff:   tbOff,
			nTasks:  len(k.Graph.Tasks),
			nTBs:    len(k.TBs),
		}
		se.nMB = int32(se.plan.NMicroBatches)
		if k.Mode == kernel.ModeInterpreted {
			se.interp = t.InterpCost.Seconds()
		}
		g := k.Graph
		for i := 0; i < se.nTasks; i++ {
			ts := &s.tasks[int(taskOff)+i]
			p := g.Paths[i]
			ts.sess = int32(si)
			ts.cap = p.TBCap
			ts.resources = p.Resources
			ts.alpha = p.Alpha.Seconds() * params.AlphaFactor
			s.ready[int(taskOff)+i].nDeps = int32(len(g.Deps[i]))
			ts.sendTB = int32(tbOff + k.SendTB[i])
			ts.recvTB = int32(tbOff + k.RecvTB[i])
		}
		// Lay out each task's adjacency in s.adj: first count link
		// successors, then place the lists, then fill the successors in
		// LinkPreds order with nSucc as the cursor.
		for lt, preds := range k.LinkPreds {
			s.ready[int(taskOff)+lt].nPreds = int32(len(preds))
			for _, p := range preds {
				s.tasks[int(taskOff)+int(p)].nSucc++
			}
		}
		for i := 0; i < se.nTasks; i++ {
			ts := &s.tasks[int(taskOff)+i]
			ts.adjOff = adjOff
			ts.nDependents = int32(len(g.Dependents[i]))
			for _, d := range g.Deps[i] {
				s.adj[adjOff] = taskOff + gid(d)
				adjOff++
			}
			for _, d := range g.Dependents[i] {
				s.adj[adjOff] = taskOff + gid(d)
				adjOff++
			}
			adjOff += ts.nSucc
			ts.nSucc = 0
		}
		for lt, preds := range k.LinkPreds {
			for _, p := range preds {
				ts := &s.tasks[int(taskOff)+int(p)]
				nDeps := s.ready[int(taskOff)+int(p)].nDeps
				s.adj[ts.adjOff+nDeps+ts.nDependents+ts.nSucc] = taskOff + gid(lt)
				ts.nSucc++
			}
		}
		if k.MBBarrier {
			se.mbRemaining = make([]int, se.plan.NMicroBatches)
			for i := range se.mbRemaining {
				se.mbRemaining[i] = se.nTasks
			}
		}
		start := 0.0
		if k.Mode == kernel.ModeDirect {
			start = t.KernelLoad.Seconds()
		}
		for i, prog := range k.TBs {
			s.tbs[tbOff+i] = tbState{
				sess:      int32(si),
				nInstr:    int32(prog.NInstr(se.plan.NMicroBatches)),
				nSlots:    int32(len(prog.Slots)),
				slotOff:   int32(slotOff),
				taskMajor: prog.Order == kernel.TaskMajor,
				arrival:   start, firstArrival: start,
			}
			for j, sl := range prog.Slots {
				v := (taskOff + gid(sl.Task.ID)) << 1
				if sl.Kind == ir.PrimSend {
					v |= 1
				}
				s.slotTask[slotOff+j] = v
			}
			slotOff += len(prog.Slots)
		}
		s.sessions = append(s.sessions, se)
		taskOff += gid(se.nTasks)
		tbOff += se.nTBs
	}
	// Size the flow-membership arena from the plans: each resource gets
	// exactly as many slots as tasks crossing it.
	s.resSlot = make([]int32, nRes+1)
	s.resCnt = make([]int32, nRes)
	for i := range s.tasks {
		for _, r := range s.tasks[i].resources {
			s.resSlot[r+1]++
		}
	}
	for r := 1; r < len(s.resSlot); r++ {
		s.resSlot[r] += s.resSlot[r-1]
	}
	s.resArena = make([]gid, s.resSlot[len(s.resSlot)-1])
	s.scratch.init(totalTasks, nRes)
	return s
}

// resFlowsOf returns the tasks (global ids) with an active flow on the
// resource, in join order (departures swap-remove).
func (s *sim) resFlowsOf(r topo.ResourceID) []gid {
	off := s.resSlot[r]
	return s.resArena[off : off+s.resCnt[r]]
}

// joinResource adds task t's flow to resource r's membership.
func (s *sim) joinResource(r topo.ResourceID, t gid) {
	s.resArena[s.resSlot[r]+s.resCnt[r]] = t
	s.resCnt[r]++
}

// leaveResource removes task t's flow from resource r's membership.
func (s *sim) leaveResource(r topo.ResourceID, t gid) {
	off, n := s.resSlot[r], s.resCnt[r]
	list := s.resArena[off : off+n]
	for i, x := range list {
		if x == t {
			list[i] = list[n-1]
			s.resCnt[r] = n - 1
			return
		}
	}
}

// sess returns the session owning a global task id.
func (s *sim) sess(t gid) *session { return s.sessions[s.tasks[t].sess] }

func (s *sim) run() error {
	// Arm the first fault boundary (no-op for fault-free runs).
	s.pushNextBound()
	// Initial arrivals.
	for i := range s.tbs {
		s.arrive(&s.tbs[i])
	}
	for i := range s.tbs {
		s.tryStart(s.tbs[i].task)
	}
	// Budget: every instance costs two lifecycle events plus rate-change
	// reschedules proportional to its contention component size.
	totalInstances := 0
	for _, se := range s.sessions {
		totalInstances += se.nTasks * se.plan.NMicroBatches
	}
	maxEvents := 512*(totalInstances+16) + 1<<20
	if s.fault != nil {
		maxEvents += 2 * len(s.fault.bounds)
	}
	processed := 0
	for s.events.Len() > 0 {
		// Fault boundaries may extend past the collective's completion;
		// stop once every TB retired rather than drain them.
		if s.fault != nil && s.doneTBs == len(s.tbs) {
			break
		}
		e := s.events.pop()
		processed++
		if processed > maxEvents {
			return fmt.Errorf("sim: event budget exceeded (%d events) — livelock", processed)
		}
		s.now = e.time
		switch e.kind {
		case evLatencyDone:
			s.counts.LatencyDone++
			s.enterDataPhase(e.arg)
		case evDataDone:
			ts := &s.tasks[e.arg]
			if ts.active && ts.version == e.version {
				s.counts.DataDone++
				s.finishInstance(e.arg)
			} else {
				// Stale: rates changed since this event was scheduled.
				s.counts.StaleDataDone++
			}
		case evFault:
			s.counts.Fault++
			s.applyFaultBound(int(e.arg))
		}
		// Rate solves are deferred while events share a timestamp: zero
		// simulated time elapses between them, so one solve over the
		// final state of the batch is exact (rates.go). Flushing may
		// schedule further events at the current instant (a drained flow
		// completes "now"), which simply extends the batch.
		if s.events.Len() == 0 || s.events.minTime() != s.now {
			s.flushRates()
		}
	}
	s.processed = processed
	if s.doneTBs != len(s.tbs) {
		return s.deadlockError()
	}
	return nil
}

// arrive moves the TB to its pending instruction: it caches the
// instruction's task and registers the arrival with it.
func (s *sim) arrive(tb *tbState) {
	if tb.done {
		return
	}
	v := s.slotTask[tb.slotOff+tb.slot]
	tb.task = v >> 1
	rd := &s.ready[tb.task]
	if v&1 != 0 {
		rd.sendArr = true
	} else {
		rd.recvArr = true
	}
	tb.arrival = s.now
	if tb.arrival < tb.firstArrival {
		tb.firstArrival = tb.arrival
	}
}

// advance retires the TB's current instruction and steps slot and mb
// along its loop order; it reports false once the TB has retired.
func (tb *tbState) advance(nMB int32) bool {
	tb.next++
	if tb.next >= tb.nInstr {
		return false
	}
	if tb.taskMajor {
		if tb.mb++; tb.mb == nMB {
			tb.mb = 0
			tb.slot++
		}
	} else if tb.slot++; tb.slot == tb.nSlots {
		tb.slot = 0
		tb.mb++
	}
	return true
}

// tryStart launches the pending invocation of task t if every readiness
// condition holds: both TBs arrived, data dependencies done for this
// micro-batch, and (ResCCL kernels) all link predecessors fully drained.
// t < 0 (a retired TB's task) is a no-op.
func (s *sim) tryStart(t gid) {
	if t < 0 {
		return
	}
	rd := &s.ready[t]
	if rd.inFlight || !rd.sendArr || !rd.recvArr ||
		rd.depsDone < rd.nDeps || rd.predsDone < rd.nPreds {
		return
	}
	ts := &s.tasks[t]
	se := s.sessions[ts.sess]
	if rd.doneMB >= se.nMB {
		return
	}
	if se.k.MBBarrier && rd.doneMB > se.mbReleased {
		return // lazy execution: previous micro-batch still in flight
	}
	// Start: both TBs transition from waiting to executing, and the
	// path's resources are committed to the transfer (busy accounting
	// covers the startup phase as well as data movement).
	rd.inFlight = true
	s.startTB(&s.tbs[ts.sendTB])
	s.startTB(&s.tbs[ts.recvTB])
	for _, r := range ts.resources {
		s.resActiveCnt[r]++
		if s.resActiveCnt[r] == 1 {
			s.resBusyStart[r] = s.now
		}
	}
	if rd.doneMB == 0 {
		// Later invocations cross the same links.
		for _, l := range se.k.Graph.Links[t-se.taskOff] {
			s.linkUsed[l] = true
		}
	}
	lat := ts.alpha + 2*se.interp
	if s.fault != nil {
		// A straggling TB pays its slowdown on the startup phase too.
		lat *= s.taskSlow(t)
	}
	s.events.push(event{time: s.now + lat, kind: evLatencyDone, arg: t})
}

func (s *sim) startTB(tb *tbState) {
	tb.sync += s.now - tb.arrival
	tb.started = s.now
}

// enterDataPhase joins the flow to its resources and marks the affected
// component for a rate re-solve.
func (s *sim) enterDataPhase(t gid) {
	ts := &s.tasks[t]
	se := s.sess(t)
	ts.active = true
	ts.remaining = se.plan.ChunkBytes * se.wire
	ts.lastUpdate = s.now
	ts.rate = 0
	for _, r := range ts.resources {
		s.joinResource(r, t)
	}
	s.markDirty(ts.resources)
}

// finishInstance completes the pending invocation of task t: leave the
// resources, advance both TBs, release dependents and link successors.
//
// Readiness counters are brought up to date before any tryStart, so
// every wake sees the post-completion state; the wakes then run in a
// fixed order (the TBs' next tasks, dependents, link successors, the
// micro-batch barrier), which fixes the order of same-time events.
func (s *sim) finishInstance(t gid) {
	ts := &s.tasks[t]
	se := s.sessions[ts.sess]
	for _, r := range ts.resources {
		s.leaveResource(r, t)
		s.resActiveCnt[r]--
		if s.resActiveCnt[r] == 0 {
			s.resBusy[r] += s.now - s.resBusyStart[r]
		}
	}
	rd := &s.ready[t]
	mb := rd.doneMB
	ts.active = false
	rd.inFlight = false
	rd.sendArr = false
	rd.recvArr = false
	rd.doneMB++
	se.instances++

	// Rates of former sharers may rise.
	s.markDirty(ts.resources)

	// This task is now past micro-batch mb: dependents pending at exactly
	// mb gain one met dependency (a dependent cannot be pending beyond
	// a dependency, and one pending earlier already counted it). The
	// task itself moves to its next invocation, so its own count starts
	// over against its dependencies' progress.
	deps, dependents, succs := s.adjacency(t)
	for _, x := range dependents {
		if dr := &s.ready[x]; dr.doneMB == mb {
			dr.depsDone++
		}
	}
	if len(deps) > 0 {
		n := int32(0)
		for _, d := range deps {
			if s.ready[d].doneMB > rd.doneMB {
				n++
			}
		}
		rd.depsDone = n
	}
	drained := rd.doneMB == se.nMB
	if drained {
		for _, x := range succs {
			s.ready[x].predsDone++
		}
	}

	sendTB, recvTB := &s.tbs[ts.sendTB], &s.tbs[ts.recvTB]
	if s.cfg.RecordTimeline {
		g, local := se.k.Graph, ir.TaskID(t-se.taskOff)
		task := g.Tasks[local]
		se.timeline = append(se.timeline, InstanceSpan{
			Task: local, MB: int(mb),
			Src: task.Src, Dst: task.Dst,
			SendTB: int(ts.sendTB) - se.tbOff, RecvTB: int(ts.recvTB) - se.tbOff,
			Start: sendTB.started, End: s.now,
			Links: g.Links[local],
		})
	}
	s.retireInstr(se, ts.sendTB)
	s.retireInstr(se, ts.recvTB)
	// Wake the TBs' new tasks, the dependents, and link successors. The
	// same task may still have micro-batches left (its TBs loop on it);
	// the TB wakes cover that case because the TB's task is t again.
	s.tryStart(sendTB.task)
	s.tryStart(recvTB.task)
	for _, x := range dependents {
		if s.ready[x].doneMB == mb {
			s.tryStart(x)
		}
	}
	if drained {
		for _, x := range succs {
			s.tryStart(x)
		}
	}
	if se.mbRemaining != nil {
		se.mbRemaining[mb]--
		if se.mbRemaining[mb] == 0 && mb+1 > se.mbReleased {
			se.mbReleased = mb + 1
			// The barrier lifted: every waiting TB of this session may
			// now proceed.
			for i := 0; i < se.nTBs; i++ {
				s.tryStart(s.tbs[se.tbOff+i].task)
			}
		}
	}
}

// adjacency returns the task's data dependencies, dependents and link
// successors.
func (s *sim) adjacency(t gid) (deps, dependents, succs []gid) {
	ts, nDeps := &s.tasks[t], s.ready[t].nDeps
	a := s.adj[ts.adjOff : ts.adjOff+nDeps+ts.nDependents+ts.nSucc]
	return a[:nDeps], a[nDeps : nDeps+ts.nDependents], a[nDeps+ts.nDependents:]
}

// retireInstr charges the finished instance to the TB and moves it to
// its next instruction, or retires it.
func (s *sim) retireInstr(se *session, id int32) {
	tb := &s.tbs[id]
	tb.exec += s.now - tb.started
	if s.segments != nil {
		segs := s.segments[id]
		if n := len(segs); n > 0 && segs[n-1][1] >= tb.started-1e-12 {
			segs[n-1][1] = s.now
		} else {
			s.segments[id] = append(segs, [2]float64{tb.started, s.now})
		}
	}
	if tb.advance(se.nMB) {
		s.arrive(tb)
		return
	}
	tb.done = true
	tb.task = -1
	tb.release = s.now
	s.doneTBs++
	se.doneTBs++
	if se.doneTBs == se.nTBs {
		se.completion = s.now
	}
}

func (s *sim) deadlockError() error {
	var blocked []string
	for i := range s.tbs {
		tb := &s.tbs[i]
		if tb.done {
			continue
		}
		rd := &s.ready[tb.task]
		se := s.sessions[tb.sess]
		prog := se.k.TBs[i-se.tbOff]
		blocked = append(blocked, fmt.Sprintf(
			"session %d TB %d (%s) at task %d mb %d/%d (sendArr=%v recvArr=%v)",
			tb.sess, prog.ID, prog.Label, tb.task-se.taskOff, rd.doneMB,
			se.plan.NMicroBatches, rd.sendArr, rd.recvArr))
		if len(blocked) >= 8 {
			break
		}
	}
	return fmt.Errorf("sim: deadlock at t=%.6fs: %d/%d TBs done; blocked: %v",
		s.now, s.doneTBs, len(s.tbs), blocked)
}

func (s *sim) result() *MultiResult {
	nUsed := 0
	for _, used := range s.linkUsed {
		if used {
			nUsed++
		}
	}
	mr := &MultiResult{
		Completion:   s.now,
		LinkBusy:     make(map[topo.LinkID]float64, nUsed),
		Events:       s.processed,
		EventsByKind: s.counts,
		Flushes:      s.flushes,
	}
	if s.fault != nil {
		mr.Faults = s.fault.applied
	}
	for l, used := range s.linkUsed {
		if used {
			mr.LinkBusy[topo.LinkID(l)] = s.resBusy[l]
		}
	}
	for _, se := range s.sessions {
		r := &Result{
			Completion: se.completion,
			Plan:       se.plan,
			Instances:  se.instances,
			Events:     s.processed,
			LinkBusy:   mr.LinkBusy,
			Faults:     mr.Faults,
			Timeline:   se.timeline,
			TBs:        make([]TBStats, se.nTBs),
		}
		if se.buffer > 0 && se.completion > 0 {
			r.AlgoBW = float64(se.buffer) / se.completion
		}
		for i, prog := range se.k.TBs {
			tb := &s.tbs[se.tbOff+i]
			var segs [][2]float64
			if s.segments != nil {
				segs = s.segments[se.tbOff+i]
			}
			r.TBs[i] = TBStats{
				ID:           prog.ID,
				Rank:         prog.Rank,
				Label:        prog.Label,
				Segments:     segs,
				FirstArrival: tb.firstArrival,
				Release:      tb.release,
				Exec:         tb.exec,
				Sync:         tb.sync,
				Slots:        len(prog.Slots),
			}
		}
		sort.Slice(r.TBs, func(i, j int) bool { return r.TBs[i].ID < r.TBs[j].ID })
		mr.Sessions = append(mr.Sessions, r)
	}
	return mr
}

// scheduleDataDone (re)schedules the completion event for an active flow
// after a rate change.
func (s *sim) scheduleDataDone(t gid) {
	ts := &s.tasks[t]
	ts.version++
	if ts.rate <= 0 {
		// A flow can only be rate-zero if a resource is fully consumed
		// by frozen flows, which max-min never produces with positive
		// capacities; guard against division by zero regardless.
		ts.rate = 1
	}
	fin := s.now + ts.remaining/ts.rate
	if ts.remaining <= 1e-9 {
		fin = s.now
	}
	s.events.push(event{time: fin, kind: evDataDone, arg: t, version: ts.version})
}

// advanceFlow charges elapsed transmission to the flow's remaining bytes.
func (s *sim) advanceFlow(t gid) {
	ts := &s.tasks[t]
	if !ts.active {
		return
	}
	elapsed := s.now - ts.lastUpdate
	if elapsed > 0 && ts.rate > 0 {
		ts.remaining -= elapsed * ts.rate
		if ts.remaining < 0 {
			ts.remaining = 0
		}
	}
	ts.lastUpdate = s.now
}
