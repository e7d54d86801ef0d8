// Command ressclbench regenerates the paper's evaluation tables and
// figures from the simulated system.
//
// Usage:
//
//	ressclbench -list
//	ressclbench -exp fig6
//	ressclbench -exp all [-quick] [-parallel] [-workers N]
//	ressclbench -exp all -quick -bench-json BENCH_run.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/bench"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
)

// startProfiles begins CPU profiling and arranges a heap snapshot,
// returning a stop function main must call before exiting (see
// docs/performance.md for the profiling workflow).
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		quick       = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		list        = flag.Bool("list", false, "list available experiments")
		format      = flag.String("format", "text", "output format: text, csv or markdown")
		parallel    = flag.Bool("parallel", false, "fan independent simulation cells across a worker pool (output is byte-identical to a serial run)")
		workers     = flag.Int("workers", 0, "worker pool size for -parallel; 0 means GOMAXPROCS")
		protocol    = flag.String("protocol", "auto", "force a transport protocol tier on every compilation: auto, ll, ll128 or simple")
		benchJSON   = flag.String("bench-json", "", "write a machine-readable perf record (wall clock, sim events/sec, cache hit rate) to this path")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of every simulated cell to this path (forces a serial run for deterministic output)")
		metricsJSON = flag.String("metrics-json", "", "write the counters/gauges registry as JSON to this path (forces a serial run for deterministic gauges)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile taken at exit to this path")

		serveLoad     = flag.Bool("serve-load", false, "run the plan-service load generator instead of simulation experiments")
		serveURL      = flag.String("serve-url", "", "target a running ressclserve instance; empty self-hosts an in-process service")
		serveClients  = flag.Int("serve-clients", 8, "concurrent load-generator clients for -serve-load")
		serveTenants  = flag.Int("serve-tenants", 4, "distinct tenant IDs for -serve-load")
		serveRequests = flag.Int("serve-requests", 200, "total requests for -serve-load")
		serveWorkers  = flag.Int("serve-workers", 4, "compile slots of the self-hosted service for -serve-load")
	)
	flag.Parse()
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if *serveLoad {
		runServeLoad(bench.ServeLoadOptions{
			URL:      *serveURL,
			Clients:  *serveClients,
			Tenants:  *serveTenants,
			Requests: *serveRequests,
			Workers:  *serveWorkers,
		}, *benchJSON)
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	// One plan cache and one metrics registry span all experiments, so
	// repeated compilations across figures are shared and both the perf
	// record and the -metrics-json registry reflect the whole run.
	cache := backend.NewCache()
	m := obs.NewMetrics()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		// Timelines append in cell completion order; only a serial run
		// keeps that order (and the trace bytes) deterministic.
		*parallel = false
	}
	if *metricsJSON != "" {
		// The link busy-time gauges are float sums, which depend on the
		// order cells finish in; only a serial run keeps them
		// deterministic.
		*parallel = false
	}
	proto, err := ir.ParseProtocol(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := bench.Options{
		Quick:    *quick,
		Parallel: *parallel,
		Workers:  *workers,
		Cache:    cache,
		Metrics:  m,
		Trace:    tr,
		Protocol: proto,
		Ctx:      ctx,
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		e, err := bench.Find(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}

	rec := bench.PerfRecord{
		GeneratedBy: "ressclbench -bench-json",
		Quick:       *quick,
		Parallel:    *parallel,
		Workers:     *workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	suiteStart := time.Now()
	for _, e := range exps {
		start := time.Now()
		preStats := cache.Stats()
		preEvents := m.Counter("sim.events")
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		postStats := cache.Stats()
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
			switch *format {
			case "csv":
				t.FprintCSV(os.Stdout)
			case "markdown", "md":
				t.FprintMarkdown(os.Stdout)
			default:
				t.Fprint(os.Stdout)
			}
		}
		hits := postStats.Hits - preStats.Hits
		misses := postStats.Misses - preStats.Misses
		if *format == "text" {
			fmt.Printf("[%s completed in %v; plan cache %d hits / %d misses]\n\n",
				e.ID, elapsed.Round(time.Millisecond), hits, misses)
		}
		if e.ID == "protocol-crossover" {
			rec.SwitchPoints = bench.ProtocolSwitchPointRecords()
		}
		rec.Experiments = append(rec.Experiments, bench.PerfExperiment{
			ID:          e.ID,
			WallMS:      float64(elapsed.Microseconds()) / 1e3,
			Tables:      len(tables),
			Rows:        rows,
			SimEvents:   m.Counter("sim.events") - preEvents,
			CacheHits:   hits,
			CacheMisses: misses,
		})
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tr.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	if *metricsJSON != "" {
		cs := cache.Stats()
		m.Add("plan_cache.hits", cs.Hits)
		m.Add("plan_cache.misses", cs.Misses)
		f, err := os.Create(*metricsJSON)
		if err == nil {
			err = m.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsJSON)
	}
	if *benchJSON == "" {
		return
	}
	total := time.Since(suiteStart)
	st := cache.Stats()
	rec.TotalWallMS = float64(total.Microseconds()) / 1e3
	rec.SimEvents = m.Counter("sim.events")
	rec.SimRuns = m.Counter("sim.runs")
	rec.RTInstances = m.Counter("rt.instances")
	rec.Replans = m.Counter("rt.replans")
	if s := total.Seconds(); s > 0 {
		rec.EventsPerSec = float64(rec.SimEvents) / s
	}
	rec.CacheHits = st.Hits
	rec.CacheMisses = st.Misses
	rec.CacheEntries = st.Entries
	rec.CacheHitRate = st.HitRate()
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*benchJSON, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perf record written to %s\n", *benchJSON)
}

// runServeLoad drives the plan-service load generator. Service timings
// are load- and host-dependent, so the record goes to its own file
// (BENCH_serve.json by convention), never the deterministic baseline
// the bench gate compares.
func runServeLoad(opts bench.ServeLoadOptions, benchJSON string) {
	rec, err := bench.ServeLoad(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("serve-load: %s — %d requests (%d clients, %d tenants): %d completed, %d shed, %d errors\n",
		rec.URL, rec.Requests, rec.Clients, rec.Tenants, rec.Completed, rec.Shed, rec.Errors)
	fmt.Printf("serve-load: %.1f req/s over %.1f ms; latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rec.ThroughputRPS, rec.WallMS, rec.P50MS, rec.P95MS, rec.P99MS)
	if benchJSON == "" {
		return
	}
	perf := bench.PerfRecord{
		GeneratedBy: "ressclbench -serve-load",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: rec.WallMS,
		ServeLoad:   rec,
	}
	out, err := json.MarshalIndent(perf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(benchJSON, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serve-load record written to %s\n", benchJSON)
}
