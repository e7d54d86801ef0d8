package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/serve"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

// serve-mix: the plan service as its tenants see it, over loopback HTTP
// from this process. Phase A is a closed loop on two connections (the
// service's capacity); compile calls made one at a time give the cost
// of a call that hits or misses the plan cache; the traced run adds
// phase B, an open loop at a fixed rate, each request timed from when
// it was due.

const (
	serveWorkers = 2
	serveConns   = 2
	// serveCacheEntries bounds the plan cache below the key
	// population, so the tail keeps missing and evicting.
	serveCacheEntries = 24
	serveCacheShards  = 4
	serveSetups       = 3
	// serveRate is the open loop's (phase B's) arrival rate: a quarter
	// of phase A's capacity on a 2-core host (about 600/s).
	serveRate = 150.0
	// A round is one phase-A block, one block of compile calls made
	// one at a time, and one direct replay pass; rounds run until the
	// run length is used up, at least serveMinRounds.
	serveBlockA    = 600
	serveBlockW    = 300
	serveMinRounds = 2
	// tracedPhaseB is the length of the open loop (phase B), which
	// only the traced run makes: its latencies are wall-clock times
	// from due, which the host's steal moves too far from run to run
	// for a bound (see README.md).
	tracedPhaseB = 1500
)

// service is one in-process plan service behind a loopback listener.
type service struct {
	svc    *serve.Service
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startService(ctx context.Context) (*service, error) {
	svc := serve.New(serve.Config{
		Workers:     serveWorkers,
		CacheConfig: backend.CacheConfig{MaxEntries: serveCacheEntries, Shards: serveCacheShards},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		svc:  svc,
		srv:  &http.Server{Handler: serve.Handler(svc), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("healthz: %w", err), s.close(ctx))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// close stops the listener, waits for the server goroutine, and drains
// the service.
func (s *service) close(ctx context.Context) error {
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, s.svc.Drain(ctx))
}

// reqResult is one request's outcome. due is zero in a closed loop.
// cpu is the process CPU time used while the request was in flight:
// the request's own cost when it is the only one.
type reqResult struct {
	status          int
	body            []byte
	due, sent, done time.Time
	cpu             time.Duration
	err             error
}

// serviceTime is the client-observed time from send to response.
func (x reqResult) serviceTime() float64 { return ms(x.done.Sub(x.sent)) }

func (s *service) post(ctx context.Context, path string, body []byte) (x reqResult) {
	x.sent = time.Now()
	start := cpuNow()
	defer func() { x.done, x.cpu = time.Now(), cpuSince(start) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		x.err = err
		return x
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		x.err = err
		return x
	}
	x.body, x.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.status = resp.StatusCode
	return x
}

// phase is one request list against a key population, with its
// pre-encoded request bodies.
type phase struct {
	keys   []planKey
	reqs   []serveReq
	bodies [][]byte
}

func newPhase(keys []planKey, reqs []serveReq) (*phase, error) {
	p := &phase{keys: keys, reqs: reqs, bodies: make([][]byte, len(reqs))}
	for i, q := range reqs {
		k := keys[q.Key]
		cr := serve.CompileRequest{
			Tenant:      fmt.Sprintf("tenant-%d", q.Tenant),
			Backend:     k.Backend,
			Algorithm:   k.Algorithm,
			Nodes:       k.Nodes,
			GPUsPerNode: k.GPUs,
			Fabric:      k.Fabric,
			Protocol:    k.Protocol,
		}
		var body any = &cr
		switch q.Endpoint {
		case epSimulate:
			body = &serve.SimulateRequest{CompileRequest: cr, BufferBytes: q.Bytes}
		case epAnalyze:
			body = &serve.AnalyzeRequest{CompileRequest: cr, BufferBytes: q.Bytes}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		p.bodies[i] = b
	}
	return p, nil
}

func (p *phase) send(ctx context.Context, s *service, i int, tr *obs.Trace) reqResult {
	sp := tr.StartSpan("serve", "/v1/"+p.reqs[i].Endpoint)
	x := s.post(ctx, "/v1/"+p.reqs[i].Endpoint, p.bodies[i])
	sp.End()
	return x
}

// closedLoop sends every request on conns connections, each sending
// its next request when the previous one returns.
func (p *phase) closedLoop(ctx context.Context, s *service, conns int) []reqResult {
	out := make([]reqResult, len(p.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) {
					return
				}
				out[i] = p.send(ctx, s, i, nil)
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop makes request i due at i/rate seconds after the start and
// sends it on the first free one of serveConns connections. It returns
// the results and, per request, how late the generator itself released
// it. Requests are recorded as spans into tr when it is non-nil.
func (p *phase) openLoop(ctx context.Context, s *service, rate float64, tr *obs.Trace) ([]reqResult, []float64) {
	out := make([]reqResult, len(p.reqs))
	due := make([]time.Time, len(p.reqs))
	late := make([]float64, len(p.reqs))
	// Buffered to the number of sends, so the generator never blocks
	// on busy senders.
	ready := make(chan int, len(p.reqs))
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				out[i] = p.send(ctx, s, i, tr)
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := range p.reqs {
		due[i] = start.Add(time.Duration(i) * interval)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due[i]))
		ready <- i
	}
	close(ready)
	wg.Wait()
	for i := range out {
		out[i].due = due[i]
	}
	return out, late
}

// response is the union of the endpoint responses' fields the
// benchmark checks.
type response struct {
	serve.CompileResponse
	CompletionUS float64 `json:"completion_us"`
	Certificate  *struct {
		GapPct float64 `json:"gap_pct"`
	} `json:"certificate"`
}

// simPoint identifies one simulate point: a plan key and a payload.
type simPoint struct {
	key   int
	bytes int64
}

// served is the checked outcome of one phase.
type served struct {
	ok int
	// warm and cold are the CPU times (ms) of compile requests that
	// hit and missed the plan cache.
	warm, cold, fromDue []float64
	elapsed             map[string][]float64
	outside, service    []float64
	completions         map[simPoint][]float64
	simCommUS           float64
	keyTBs              map[int]int
}

// check validates every response of a phase: a 2xx body must decode,
// an analyze response must carry a certificate with a non-negative
// gap, and a simulate response's completion is kept for the replay; a
// non-2xx response must be a typed shed.
func (p *phase) check(results []reqResult, r *report) served {
	out := served{
		elapsed:     map[string][]float64{},
		completions: map[simPoint][]float64{},
		keyTBs:      map[int]int{},
	}
	for i, x := range results {
		q := p.reqs[i]
		key := p.keys[q.Key]
		r.attempted++
		if x.err != nil {
			r.fail("request %d (%s %+v): %v", i, q.Endpoint, key, x.err)
			continue
		}
		if x.status != http.StatusOK {
			var e struct {
				Kind string `json:"kind"`
			}
			_ = json.Unmarshal(x.body, &e)
			shed := (x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable) &&
				(e.Kind == "overloaded" || e.Kind == "quota" || e.Kind == "draining")
			if shed {
				r.refused()
			} else {
				r.fail("request %d (%s %+v): status %d: %s", i, q.Endpoint, key, x.status, strings.TrimSpace(string(x.body)))
			}
			continue
		}
		var resp response
		if err := json.Unmarshal(x.body, &resp); err != nil {
			r.fail("request %d (%s %+v): decode: %v", i, q.Endpoint, key, err)
			continue
		}
		out.ok++
		switch q.Endpoint {
		case epAnalyze:
			if resp.Certificate == nil {
				r.fail("request %d: analyze response for %+v has no certificate", i, key)
			} else {
				r.check(resp.Certificate.GapPct >= 0, "request %d: %+v certificate gap %.3f%% < 0", i, key, resp.Certificate.GapPct)
			}
		case epSimulate:
			pt := simPoint{q.Key, q.Bytes}
			out.completions[pt] = append(out.completions[pt], resp.CompletionUS)
			out.simCommUS += resp.CompletionUS
		}
		if _, seen := out.keyTBs[q.Key]; !seen {
			out.keyTBs[q.Key] = resp.MaxTBsRank
		}
		st := x.serviceTime()
		out.service = append(out.service, st)
		out.elapsed[q.Endpoint] = append(out.elapsed[q.Endpoint], resp.ElapsedMS)
		out.outside = append(out.outside, st-resp.ElapsedMS)
		switch {
		case q.Endpoint != epCompile:
		case resp.CacheHit:
			out.warm = append(out.warm, ms(x.cpu))
		default:
			out.cold = append(out.cold, ms(x.cpu))
		}
		if !x.due.IsZero() {
			out.fromDue = append(out.fromDue, ms(x.done.Sub(x.due)))
		}
	}
	return out
}

// merge pools the checked outcomes of consecutive parts of a phase.
func merge(parts []served) served {
	out := served{
		elapsed:     map[string][]float64{},
		completions: map[simPoint][]float64{},
		keyTBs:      map[int]int{},
	}
	for _, p := range parts {
		out.ok += p.ok
		out.warm = append(out.warm, p.warm...)
		out.cold = append(out.cold, p.cold...)
		out.fromDue = append(out.fromDue, p.fromDue...)
		out.outside = append(out.outside, p.outside...)
		out.service = append(out.service, p.service...)
		out.simCommUS += p.simCommUS
		for ep, v := range p.elapsed {
			out.elapsed[ep] = append(out.elapsed[ep], v...)
		}
		for pt, v := range p.completions {
			out.completions[pt] = append(out.completions[pt], v...)
		}
		for k, t := range p.keyTBs {
			if _, seen := out.keyTBs[k]; !seen {
				out.keyTBs[k] = t
			}
		}
	}
	return out
}

// buildKey materialises a plan key the way the service does: its
// expert algorithm on its fabric, for its backend and tier.
func buildKey(k planKey) (backend.Backend, backend.Request, error) {
	var b backend.Backend
	switch k.Backend {
	case "nccl":
		b = backend.NewNCCL()
	case "msccl":
		b = backend.NewMSCCL()
	default:
		b = backend.NewResCCL()
	}
	bld, ok := expert.Lookup(k.Algorithm)
	if !ok {
		return nil, backend.Request{}, fmt.Errorf("unknown algorithm %q", k.Algorithm)
	}
	params := []int{k.Nodes * k.GPUs}
	if bld.NParams == 2 {
		params = []int{k.Nodes, k.GPUs}
	}
	algo, err := bld.Build(params...)
	if err != nil {
		return nil, backend.Request{}, err
	}
	var tp *topo.Topology
	switch k.Fabric {
	case "clos":
		tp = topo.NewClos(k.Nodes, k.GPUs, topo.A100(), 2)
	case "rail":
		tp = topo.NewRail(k.Nodes, k.GPUs, topo.A100(), 2)
	default:
		tp = topo.New(k.Nodes, k.GPUs, topo.A100())
	}
	proto := ir.ProtoAuto
	if k.Protocol != "" {
		if proto, err = ir.ParseProtocol(k.Protocol); err != nil {
			return nil, backend.Request{}, err
		}
	}
	return b, backend.Request{Algo: algo, Topo: tp, Protocol: proto}, nil
}

// replay re-executes the service's work directly, outside it: one cold
// compile of every key of the population and one sim.Run of every key
// at every payload. Every pass is timed; a simulate point counts with
// its weight, the number of simulate requests it stands for.
type replay struct {
	keys    []planKey
	weight  map[simPoint]float64
	results map[simPoint]pointResult
	// tbs is each key's plan's max TBs per rank.
	tbs map[int]int
	// compile and simTime sum the timings over passes.
	compile time.Duration
	simTime map[simPoint]time.Duration
	passes  int
}

// pointResult is what the replay keeps of one simulation; plans and
// results are dropped after each key, so the replay does not add to
// the workload's heap.
type pointResult struct {
	completionUS      float64
	events, instances int
	ranks             int
}

func newReplay(keys []planKey, weight func(simPoint) float64) *replay {
	rp := &replay{keys: keys, weight: map[simPoint]float64{}, results: map[simPoint]pointResult{}, tbs: map[int]int{}, simTime: map[simPoint]time.Duration{}}
	for k := range keys {
		for _, b := range serveBuffers {
			pt := simPoint{k, b}
			rp.weight[pt] = weight(pt)
		}
	}
	return rp
}

// expectedWeight weighs a simulate point by the simulate requests a
// phase of n requests makes of it on average: the key's popularity
// times the endpoint mix's simulate share, spread evenly over the
// payloads.
func expectedWeight(n int) func(simPoint) float64 {
	w := zipfWeights(len(serveKeys))
	simShare := 0
	for _, ep := range endpointCycle {
		if ep == epSimulate {
			simShare++
		}
	}
	return func(pt simPoint) float64 {
		return w[pt.key] * float64(n*simShare) / float64(len(endpointCycle)*len(serveBuffers))
	}
}

// countedWeight weighs a simulate point by the simulate requests ph
// makes of it.
func countedWeight(ph *phase) func(simPoint) float64 {
	counts := map[simPoint]float64{}
	for _, q := range ph.reqs {
		if q.Endpoint == epSimulate {
			counts[simPoint{q.Key, q.Bytes}]++
		}
	}
	return func(pt simPoint) float64 { return counts[pt] }
}

// pass compiles every key and runs every simulate point once, timing
// each.
func (rp *replay) pass(ctx context.Context, r *report) error {
	rp.passes++
	for k, key := range rp.keys {
		b, req, err := buildKey(key)
		if err != nil {
			return fmt.Errorf("key %+v: %w", key, err)
		}
		start := cpuNow()
		plan, err := b.Compile(ctx, req)
		rp.compile += cpuSince(start)
		r.op(err)
		if err != nil {
			return fmt.Errorf("key %+v: compile: %w", key, err)
		}
		rp.tbs[k] = plan.Kernel.MaxTBsPerRank()
		for _, bytes := range serveBuffers {
			pt := simPoint{k, bytes}
			start := cpuNow()
			res, err := sim.Run(sim.Config{Topo: req.Topo, Kernel: plan.Kernel, BufferBytes: bytes, ChunkBytes: scaleChunk})
			rp.simTime[pt] += cpuSince(start)
			r.op(err)
			if err != nil {
				return fmt.Errorf("key %+v at %d B: simulate: %w", key, bytes, err)
			}
			got := pointResult{res.Completion * 1e6, res.Events, res.Instances, req.Topo.NRanks()}
			if want, seen := rp.results[pt]; seen {
				r.check(got == want, "%+v at %d B: direct sim.Run gave %+v, an earlier pass %+v", key, bytes, got, want)
			}
			rp.results[pt] = got
		}
	}
	return nil
}

// check compares every served completion with the direct simulation
// bit for bit, and every served plan's TBs per rank with the direct
// compile's.
func (rp *replay) check(ph served, r *report) {
	for k, t := range ph.keyTBs {
		r.check(t == rp.tbs[k], "%+v: served plan has %d TBs per rank, direct compile %d", rp.keys[k], t, rp.tbs[k])
	}
	for pt, got := range ph.completions {
		res, ok := rp.results[pt]
		if !ok {
			r.fail("key %+v at %d B was served but not replayed", rp.keys[pt.key], pt.bytes)
			continue
		}
		for _, c := range got {
			r.check(c == res.completionUS, "%+v at %d B: served completion %v µs, direct sim.Run %v µs", rp.keys[pt.key], pt.bytes, c, res.completionUS)
		}
	}
}

// totals returns the mean over passes of the compile time summed over
// keys and of the weighted simulation time, with the sim layer's
// weighted work and the part of time and work at the largest rank
// count.
func (rp *replay) totals() (compile, simulate time.Duration, events, instances int, largest time.Duration, largestEvents int) {
	if rp.passes == 0 {
		return
	}
	compile = rp.compile / time.Duration(rp.passes)
	maxRanks := 0
	for _, res := range rp.results {
		maxRanks = max(maxRanks, res.ranks)
	}
	var ev, inst, largeEv float64
	// Points in a fixed order, so that the weighted sums repeat
	// exactly.
	for k := range rp.keys {
		for _, bytes := range serveBuffers {
			pt := simPoint{k, bytes}
			res, w := rp.results[pt], rp.weight[pt]
			d := time.Duration(w * float64(rp.simTime[pt]) / float64(rp.passes))
			simulate += d
			ev += w * float64(res.events)
			inst += w * float64(res.instances)
			if res.ranks == maxRanks {
				largest += d
				largeEv += w * float64(res.events)
			}
		}
	}
	return compile, simulate, int(math.Round(ev)), int(math.Round(inst)), largest, int(math.Round(largeEv))
}

// served returns the modelled result of the service's work: the
// simulated completion of the simulate requests the replay's weights
// stand for, in seconds, and the mean over keys of the plans' max TBs
// per rank.
func (rp *replay) served() (simComm, tbs float64) {
	for k := range rp.keys {
		tbs += float64(rp.tbs[k]) / float64(len(rp.keys))
		for _, bytes := range serveBuffers {
			pt := simPoint{k, bytes}
			simComm += rp.weight[pt] * rp.results[pt].completionUS / 1e6
		}
	}
	return simComm, tbs
}

// prime compiles every key once through the service.
func prime(ctx context.Context, s *service, keys []planKey) error {
	reqs := make([]serveReq, len(keys))
	for k := range reqs {
		reqs[k] = serveReq{Endpoint: epCompile, Key: k}
	}
	p, err := newPhase(keys, reqs)
	if err != nil {
		return err
	}
	for i := range reqs {
		x := p.send(ctx, s, i, nil)
		if x.err != nil || x.status != http.StatusOK {
			return fmt.Errorf("prime %+v: status %d: %v %s", keys[i], x.status, x.err, x.body)
		}
	}
	return nil
}

// serveLayer records the serve layer's per-layer metrics from one
// open-loop phase: server time per endpoint, the time a request spends
// outside its worker slot (queue, admission, HTTP and JSON), latency
// from due, generator lateness, and the service's shed/failed and
// cache counters.
func serveLayer(s *service, ph served, late []float64, r *report) {
	for _, ep := range []string{epCompile, epSimulate, epAnalyze} {
		r.set("serve."+ep+"_ms", mean(ph.elapsed[ep]))
	}
	r.set("serve.outside_slot_ms", mean(ph.outside))
	r.set("serve.open_p50_ms", percentile(ph.fromDue, 0.50))
	r.set("serve.open_p95_ms", percentile(ph.fromDue, 0.95))
	r.set("serve.generator_late_ms", percentile(late, 0.99))
	m := s.svc.Metrics()
	r.set("serve.shed", float64(m.Counter("serve.shed.overloaded")+m.Counter("serve.shed.quota")+m.Counter("serve.shed.draining")))
	r.set("serve.failed", float64(m.Counter("serve.failed")+m.Counter("serve.deadline_exceeded")+m.Counter("serve.cancelled")))
	setCache(r, s.svc.CacheStats())
}

func setCache(r *report, st backend.CacheStats) {
	r.set("backend.cache_hits", float64(st.Hits))
	r.set("backend.cache_misses", float64(st.Misses))
	r.set("backend.cache_evictions", float64(st.Evictions))
	r.set("backend.cache_hit_ratio", st.HitRate())
}

// probeServe measures the serve layer for workloads that do not serve:
// the workload's representative plan key through each endpoint three
// times, open loop at a low rate.
func probeServe(ctx context.Context, key planKey, r *report) error {
	var reqs []serveReq
	for i := 0; i < 3; i++ {
		for _, ep := range []string{epCompile, epSimulate, epAnalyze} {
			reqs = append(reqs, serveReq{Endpoint: ep, Bytes: 4 << 20})
		}
	}
	p, err := newPhase([]planKey{key}, reqs)
	if err != nil {
		return err
	}
	s, err := startService(ctx)
	if err != nil {
		return err
	}
	results, late := p.openLoop(ctx, s, 20, nil)
	serveLayer(s, p.check(results, r), late, r)
	return s.close(ctx)
}

// oneCore runs f with the Go scheduler on one core, so that the process
// CPU time of a request made alone is that request's own: on two cores
// it also counts the scheduler spinning on the idle one.
func oneCore(f func() []reqResult) []reqResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// roundPhase draws round n's requests of one phase: every round is a
// complete stratified draw of the same mix. compileOnly makes every
// request a compile.
func roundPhase(seed, stream int64, round, n int, compileOnly bool) (*phase, error) {
	reqs := serveStream(seed, stream+16*int64(round), n)
	if compileOnly {
		for i := range reqs {
			reqs[i].Endpoint = epCompile
		}
	}
	return newPhase(serveKeys, reqs)
}

func runServe(ctx context.Context, cfg config, r *report) error {
	var peak heapPeak

	// Set-up: start the service and warm its cache with one compile of
	// every key, several times; the last instance serves the phases.
	var setups []float64
	var s *service
	var err error
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if err := s.close(ctx); err != nil {
				return err
			}
		}
		start := cpuNow()
		if s, err = startService(ctx); err != nil {
			return err
		}
		if err := prime(ctx, s, serveKeys); err != nil {
			return errors.Join(err, s.close(ctx))
		}
		setups = append(setups, cpuSince(start).Seconds())
		peak.sample()
	}
	r.set("setup_s", median(setups))

	if cfg.traced {
		ph, err := newPhase(serveKeys, serveStream(cfg.seed, streamServeB, tracedPhaseB))
		if err != nil {
			return errors.Join(err, s.close(ctx))
		}
		return errors.Join(tracedServe(ctx, cfg, s, ph, r), s.close(ctx))
	}

	// Phase A blocks, compile-call blocks and replay passes alternate
	// until the run length is used up, so each is measured across the
	// whole run rather than in one window of it. Every figure pools
	// all rounds.
	rp := newReplay(serveKeys, expectedWeight(serveBlockA))
	var partsA, partsW []served
	var cpuA time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for round := 0; round < serveMinRounds || time.Now().Before(deadline); round++ {
		blockA, err := roundPhase(cfg.seed, streamServeA, round, serveBlockA, false)
		if err != nil {
			return errors.Join(err, s.close(ctx))
		}
		blockW, err := roundPhase(cfg.seed, streamServeW, round, serveBlockW, true)
		if err != nil {
			return errors.Join(err, s.close(ctx))
		}
		start := cpuNow()
		res := blockA.closedLoop(ctx, s, serveConns)
		cpuA += cpuSince(start)
		partsA = append(partsA, blockA.check(res, r))
		partsW = append(partsW, blockW.check(oneCore(func() []reqResult { return blockW.closedLoop(ctx, s, 1) }), r))
		peak.sample()
		if err := rp.pass(ctx, r); err != nil {
			return errors.Join(err, s.close(ctx))
		}
	}
	if err := s.close(ctx); err != nil {
		return err
	}
	outA, outW := merge(partsA), merge(partsW)
	rp.check(outA, r)
	rp.check(outW, r)
	compile, simulate, events, _, _, _ := rp.totals()
	simComm, tbs := rp.served()

	// Capacity is the closed loop's successful requests per second of
	// CPU time on each of the process's cores: the rate the service
	// sustains on two cores of its own.
	capacity := float64(outA.ok) * float64(runtime.GOMAXPROCS(0)) / cpuA.Seconds()
	r.set("serve_capacity_rps", capacity)
	r.set("calls_per_s", capacity)
	r.set("warm_call_p50_ms", percentile(outW.warm, 0.50))
	r.set("warm_call_p99_ms", percentile(outW.warm, 0.99))
	r.set("cold_call_p50_ms", percentile(outW.cold, 0.50))
	r.set("sim_comm_s", simComm)
	r.set("tbs_per_rank", tbs)
	r.set("compile_s", compile.Seconds())
	r.set("simulate_s", simulate.Seconds())
	r.set("peak_heap_mb", peak.mb())
	r.count("serve_mix.sim_comm_s", simComm)
	r.count("serve_mix.tbs_per_rank", tbs)
	r.count("serve_mix.replay_sim_events", float64(events))
	fmt.Printf("info %d rounds; phase A: %d requests on %d connections; compile calls: %d hits, %d misses\n",
		len(partsA), len(partsA)*serveBlockA, serveConns, len(outW.warm), len(outW.cold))
	return nil
}

// tracedServe is serve-mix's traced run: phase B untraced and then
// traced, each request recorded as a span; the serve layer from the
// traced phase and the sim layer from its replay; the pipeline layers
// replayed on every key; and the fixed probes.
func tracedServe(ctx context.Context, cfg config, s *service, ph *phase, r *report) error {
	untraced, _ := ph.openLoop(ctx, s, serveRate, nil)
	base := ph.check(untraced, r)
	alloc := startAllocDelta()
	tr := obs.NewTrace()
	traced, late := ph.openLoop(ctx, s, serveRate, tr)
	alloc.record(r)
	out := ph.check(traced, r)
	serveLayer(s, out, late, r)
	spanMS := 0.0
	for _, sp := range tr.Spans() {
		spanMS += ms(sp.Duration)
	}
	r.set("trace.overhead_pct", overheadPct(spanMS, sum(base.service)))

	var plans []planInput
	for k, key := range serveKeys {
		key := key
		plans = append(plans, planInput{
			label: fmt.Sprintf("key %d %+v", k, key),
			build: func() (*ir.Algorithm, *topo.Topology, error) {
				_, req, err := buildKey(key)
				return req.Algo, req.Topo, err
			},
			proto:     ir.ProtoAuto,
			bytes:     4 << 20,
			baselines: true,
		})
	}
	if _, err := replayLayers(ctx, plans, r); err != nil {
		return err
	}
	rp := newReplay(serveKeys, countedWeight(ph))
	if err := rp.pass(ctx, r); err != nil {
		return err
	}
	rp.check(out, r)
	_, simulate, events, instances, largest, largestEvents := rp.totals()
	setSim(r, simulate, events, instances, largest, largestEvents)
	return probeFixed(ctx, cfg.seed, r)
}
