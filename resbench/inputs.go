package main

import (
	"math"
	"math/rand"

	"github.com/resccl/resccl/internal/ir"
)

// Every input of a run is generated here from the seed; the program
// under test sees only the generated calls and requests. Draws are
// stratified so that each seed yields the same mix of work in a
// different arrangement: metrics then vary by seed only through that
// arrangement, not through a different amount of work.

// newRand returns the generator of one named input stream of a seed.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

const (
	streamTrain int64 = iota + 1
	streamScale
	streamServeA
	streamServeB
	streamServeW
)

// stratified returns n values in [0, 1), one uniformly drawn from each
// of n equal strata, in shuffled order.
func stratified(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

// ---- train-dispatch -------------------------------------------------

// bucketSizes is the gradient-bucket size grid: 64 KiB to 256 MiB in
// quarter-octave steps, rounded to 4 KiB. Sizes repeat across jobs, as
// a model's bucket sizes repeat across restarts.
var bucketSizes = func() []int64 {
	var out []int64
	for i := 0; i <= 48; i++ {
		b := 64 * 1024 * math.Pow(2, float64(i)/4)
		out = append(out, int64(math.Round(b/4096))*4096)
	}
	return out
}()

// callsPerJob and opShare fix each job's operator mix: half AllReduce,
// a quarter each AllGather and ReduceScatter.
const callsPerJob = 300

var opShare = []struct {
	op    ir.OpType
	calls int
}{
	{ir.OpAllReduce, callsPerJob / 2},
	{ir.OpAllGather, callsPerJob / 4},
	{ir.OpReduceScatter, callsPerJob / 4},
}

type trainCall struct {
	Op    ir.OpType
	Bytes int64
}

// trainJob is one training job's call stream. The job also compiles
// the ResCCLang algorithm once and runs it with LangBytes just before
// call LangAt.
type trainJob struct {
	Calls     []trainCall
	LangAt    int
	LangBytes int64
}

// trainJobs draws n jobs. Each operator's sizes are stratified over
// the log-uniform bucket grid; the calls are then shuffled together.
func trainJobs(seed int64, n int) []trainJob {
	rng := newRand(seed, streamTrain)
	jobs := make([]trainJob, n)
	for j := range jobs {
		var calls []trainCall
		for _, s := range opShare {
			for _, u := range stratified(rng, s.calls) {
				calls = append(calls, trainCall{Op: s.op, Bytes: bucketSizes[int(u*float64(len(bucketSizes)))]})
			}
		}
		rng.Shuffle(len(calls), func(a, b int) { calls[a], calls[b] = calls[b], calls[a] })
		jobs[j] = trainJob{
			Calls:     calls,
			LangAt:    rng.Intn(len(calls)),
			LangBytes: bucketSizes[rng.Intn(len(bucketSizes))],
		}
	}
	return jobs
}

// ---- scale-rail -----------------------------------------------------

// scaleShape is one what-if point: hier-allreduce on a rail fabric.
type scaleShape struct {
	Nodes, GPUs, Spines int
}

// scaleShapes are 128, 512 and 4096 ranks, with the spine counts of the
// repository's scale experiment.
var scaleShapes = []scaleShape{{16, 8, 8}, {64, 8, 8}, {512, 8, 16}}

const (
	scalePayload = 64 << 20
	scaleChunk   = 1 << 20
)

// scalePayloads draws one per-rank payload per shape: 64 MiB less a
// seeded multiple of 4 KiB below one chunk, so the micro-batch count
// and event count stay those of 64 MiB while the simulated times move
// slightly with the seed.
func scalePayloads(seed int64) []int64 {
	rng := newRand(seed, streamScale)
	out := make([]int64, len(scaleShapes))
	for i := range out {
		out[i] = scalePayload - 4096*int64(rng.Intn(scaleChunk/4096))
	}
	return out
}

// ---- serve-mix ------------------------------------------------------

// planKey is one plan the service compiles: an expert-registry
// algorithm on a fabric shape, for one backend and protocol tier.
type planKey struct {
	Algorithm string
	Nodes     int
	GPUs      int
	Fabric    string
	Backend   string
	Protocol  string
}

// serveKeys is the fixed population of 40 keys in popularity order;
// the service's cache holds fewer. It does not depend on the seed:
// seeds change the request stream, not the population. Each shape
// contributes a fixed pseudo-random subset of its (algorithm × backend
// × tier) combinations, and smaller shapes are more popular, so the
// cached head is single- and dual-node plans and the 32- and 64-rank
// plans form the tail that keeps missing. At 64 ranks the population
// leaves out the NCCL backend and the flat ring, whose compiles take a
// worker for a third of a second.
var serveKeys = func() []planKey {
	shapes := []struct {
		nodes, gpus int
		fabric      string
		keys        int
		algos       []string
		backends    []string
	}{
		{1, 8, "flat", 8, []string{"mesh-allreduce", "ring-allreduce", "mesh-allgather", "ring-allgather"}, []string{"resccl", "nccl", "msccl"}},
		{2, 8, "flat", 8, []string{"hm-allreduce", "hm-allgather", "hm-reducescatter", "ring-allreduce"}, []string{"resccl", "nccl", "msccl"}},
		{2, 8, "clos", 6, []string{"hm-allreduce", "hm-allgather", "hm-reducescatter", "ring-allreduce"}, []string{"resccl", "nccl", "msccl"}},
		{2, 8, "rail", 6, []string{"hm-allreduce", "hm-allgather", "hm-reducescatter", "hier-allreduce"}, []string{"resccl", "nccl", "msccl"}},
		{4, 8, "rail", 6, []string{"hm-allreduce", "hm-allgather", "hm-reducescatter", "hier-allreduce"}, []string{"resccl", "nccl", "msccl"}},
		{8, 8, "rail", 6, []string{"hm-allreduce", "hm-allgather", "hm-reducescatter", "hier-allreduce"}, []string{"resccl", "msccl"}},
	}
	rng := rand.New(rand.NewSource(11))
	var keys []planKey
	for _, sh := range shapes {
		var all []planKey
		for _, a := range sh.algos {
			for _, b := range sh.backends {
				for _, p := range []string{"", "ll", "ll128", "simple"} {
					all = append(all, planKey{Algorithm: a, Nodes: sh.nodes, GPUs: sh.gpus, Fabric: sh.fabric, Backend: b, Protocol: p})
				}
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		keys = append(keys, all[:sh.keys]...)
	}
	return keys
}()

// Endpoints in the 2:2:1 compile:simulate:analyze mix.
const (
	epCompile  = "compile"
	epSimulate = "simulate"
	epAnalyze  = "analyze"
)

var endpointCycle = []string{epCompile, epSimulate, epCompile, epSimulate, epAnalyze}

// serveBuffers are the simulate/analyze payload sizes, 256 KiB to 8 MiB.
var serveBuffers = []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

const nTenants = 4

type serveReq struct {
	Endpoint string
	Key      int
	Tenant   int
	Bytes    int64
}

// zipfWeights are the key popularities: weight ∝ 1/(rank+1).
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / float64(i+1)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// serveStream draws n requests of one phase. Key counts follow the
// Zipf-like popularity by systematic sampling; each key's requests
// cycle through the endpoint mix and the buffer sizes from seeded
// offsets; the whole stream is then shuffled.
func serveStream(seed, stream int64, n int) []serveReq {
	rng := newRand(seed, stream)
	w := zipfWeights(len(serveKeys))
	counts := make([]int, len(w))
	u0, cum, k := rng.Float64(), 0.0, 0
	for i := 0; i < n; i++ {
		p := (float64(i) + u0) / float64(n)
		for k < len(w)-1 && p >= cum+w[k] {
			cum += w[k]
			k++
		}
		counts[k]++
	}
	reqs := make([]serveReq, 0, n)
	for key, c := range counts {
		epOff, bufOff := rng.Intn(len(endpointCycle)), rng.Intn(len(serveBuffers))
		for j := 0; j < c; j++ {
			reqs = append(reqs, serveReq{
				Endpoint: endpointCycle[(j+epOff)%len(endpointCycle)],
				Key:      key,
				Tenant:   rng.Intn(nTenants),
				Bytes:    serveBuffers[(j+bufOff)%len(serveBuffers)],
			})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}
