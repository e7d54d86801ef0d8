package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// spec declares one reported metric. The lists below are the single
// source of the metric names; BENCHMARK.json mirrors them (a test
// checks that it does).
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what each means on each
// workload.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"warm_call_p50_ms", "ms", "lower"},
	{"warm_call_p99_ms", "ms", "lower"},
	{"cold_call_p50_ms", "ms", "lower"},
	{"calls_per_s", "1/s", "higher"},
	{"sim_comm_s", "sim_s", "lower"},
	{"tbs_per_rank", "count", "lower"},
	{"compile_s", "s", "lower"},
	{"simulate_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"serve_capacity_rps", "1/s", "higher"},
}

// perLayer are the traced run's metrics, one group per package.
var perLayer = []spec{
	{"lang.compile_ms", "ms", "lower"},
	{"collective.check_ms", "ms", "lower"},
	{"verify.check_ms", "ms", "lower"},
	{"dag.build_ms", "ms", "lower"},
	{"dag.tasks", "count", "lower"},
	{"sched.schedule_ms", "ms", "lower"},
	{"sched.subpipelines", "count", "lower"},
	{"talloc.alloc_ms", "ms", "lower"},
	{"talloc.tbs", "count", "lower"},
	{"kernel.generate_ms", "ms", "lower"},
	{"kernel.primitives", "count", "lower"},
	{"analyze.vet_ms", "ms", "lower"},
	{"analyze.full_ms", "ms", "lower"},
	{"cert.certify_ms", "ms", "lower"},
	{"cert.gap_pct", "%", "lower"},
	{"backend.resccl_compile_ms", "ms", "lower"},
	{"backend.nccl_compile_ms", "ms", "lower"},
	{"backend.msccl_compile_ms", "ms", "lower"},
	{"backend.cache_hit_us", "us", "lower"},
	{"backend.cache_hits", "count", "higher"},
	{"backend.cache_misses", "count", "lower"},
	{"backend.cache_evictions", "count", "lower"},
	{"backend.cache_hit_ratio", "ratio", "higher"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.instances", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.largest_ns_per_event", "ns", "lower"},
	{"trace.analyze_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"search.search_ms", "ms", "lower"},
	{"search.candidates", "count", "higher"},
	{"search.gated_out", "count", "lower"},
	{"tune.sweep_s", "s", "lower"},
	{"tune.cells", "count", "lower"},
	{"tune.pruned", "count", "lower"},
	{"serve.compile_ms", "ms", "lower"},
	{"serve.simulate_ms", "ms", "lower"},
	{"serve.analyze_ms", "ms", "lower"},
	{"serve.outside_slot_ms", "ms", "lower"},
	{"serve.open_p50_ms", "ms", "lower"},
	{"serve.open_p95_ms", "ms", "lower"},
	{"serve.generator_late_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.failed", "count", "lower"},
	{"expert.build_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
}

// maxListedFailures bounds the failure messages printed with the
// result.
const maxListedFailures = 20

// report accumulates one run's operation counts, check results,
// metric values and deterministic counters.
type report struct {
	attempted, failed int
	// incorrect counts failed correctness checks and unexpected
	// errors; refused requests are failed operations but not
	// incorrect.
	incorrect int
	messages  []string
	values    map[string]float64
	counters  map[string]float64
}

func newReport() *report {
	return &report{values: map[string]float64{}, counters: map[string]float64{}}
}

// op counts one attempted operation; a non-nil err marks it failed and
// incorrect.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// fail records a failed correctness check against the current
// operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.incorrect++
	if len(r.messages) < maxListedFailures {
		r.messages = append(r.messages, fmt.Sprintf(format, args...))
	}
}

// refused records an operation the system declined with a typed
// refusal (load shedding): it failed, but the output was correct.
func (r *report) refused() { r.failed++ }

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// count records a deterministic counter: printed beside the metrics,
// identical on every run of the same code, seed and run length.
func (r *report) count(name string, v float64) { r.counters[name] = v }

func (r *report) correct() bool { return r.incorrect == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints every metric in specs by name with its unit and better
// direction, then the deterministic counters, then the JSON result as
// the last line. A metric the workload did not produce, or produced as
// a non-finite number, is a benchmark bug and fails the run; so is an
// end-to-end metric that is not positive.
func (r *report) write(w io.Writer, specs []spec, positive bool) error {
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: min(r.failed, r.attempted), Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (positive && v <= 0) {
			return fmt.Errorf("metric %s was not measured (got %v)", s.name, v)
		}
		fmt.Fprintf(w, "metric %-26s %14.6g %-6s (%s is better)\n", s.name, v, s.unit, s.better)
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "counter %-25s %.17g\n", n, r.counters[n])
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d, failed checks %d\n", r.attempted, res.Failed, r.incorrect)
	for _, m := range r.messages {
		fmt.Fprintf(w, "failure: %s\n", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
