package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// streams renders every input a seed generates, as the program
// receives it.
func streams(t *testing.T, seed int64) []byte {
	t.Helper()
	train := trainJobs(seed, 3)
	phA, err := newPhase(serveKeys, serveStream(seed, streamServeA, 500))
	if err != nil {
		t.Fatal(err)
	}
	phB, err := newPhase(serveKeys, serveStream(seed, streamServeB, tracedPhaseB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{train, scalePayloads(seed)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, ph := range []*phase{phA, phB} {
		for _, b := range ph.bodies {
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := streams(t, 7), streams(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated two different request streams")
	}
	if bytes.Equal(a, streams(t, 8)) {
		t.Fatal("seeds 7 and 8 generated the same request stream")
	}
}

// TestStreamMix checks that seeds rearrange a fixed mix: the same
// operator quotas per job and the same key counts per phase, within
// the one request systematic sampling may move.
func TestStreamMix(t *testing.T) {
	for _, job := range trainJobs(3, 2) {
		counts := map[string]int{}
		for _, c := range job.Calls {
			counts[c.Op.String()]++
		}
		for _, s := range opShare {
			if counts[s.op.String()] != s.calls {
				t.Errorf("job has %d %v calls, want %d", counts[s.op.String()], s.op, s.calls)
			}
		}
	}
	const n = 2000
	w := zipfWeights(len(serveKeys))
	for _, seed := range []int64{1, 2} {
		counts := make([]int, len(serveKeys))
		for _, q := range serveStream(seed, streamServeB, n) {
			counts[q.Key]++
		}
		for k, c := range counts {
			if want := w[k] * n; float64(c) < want-1 || float64(c) > want+1 {
				t.Errorf("seed %d: key %d drawn %d times, want %.1f±1", seed, k, c, want)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit, Better string }
		reported []spec
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", c.name, len(c.declared), len(c.reported))
			continue
		}
		for i, d := range c.declared {
			if s := c.reported[i]; d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, d, s)
			}
		}
	}
}

// runOnce runs a workload for one second and checks that it produced
// every metric of its mode without a failed operation.
func runOnce(t *testing.T, name string, traced bool) *report {
	t.Helper()
	r := newReport()
	if err := workloads[name](context.Background(), config{seed: 5, seconds: 1, traced: traced}, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	specs, positive := endToEnd, true
	if traced {
		specs, positive = perLayer, false
	}
	var out bytes.Buffer
	if err := r.write(&out, specs, positive); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	if !r.correct() || r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed\n%s", name, r.failed, r.attempted, out.String())
	}
	return r
}

// TestSmoke runs every workload briefly, twice untraced and once
// traced. The deterministic counters must repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			first := runOnce(t, name, false)
			if len(first.counters) == 0 {
				t.Fatal("no deterministic counters")
			}
			if again := runOnce(t, name, false); !reflect.DeepEqual(first.counters, again.counters) {
				t.Errorf("counters differ between runs:\n%v\n%v", first.counters, again.counters)
			}
			runOnce(t, name, true)
		})
	}
}
