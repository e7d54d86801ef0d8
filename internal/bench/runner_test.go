package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/tune"
)

// renderCSV renders an experiment's tables the way the CLI does, with
// measured wall-clock cells masked: any cell that parses as a
// time.Duration (Figure 10a's phase timings) or sits in a column whose
// header carries the "(wall" marker (the faulted replan table's recovery
// columns) is non-deterministic between runs even serially, so it cannot
// participate in the byte-equality check. Everything else — every
// simulated quantity — must match exactly.
func renderCSV(tables []*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		masked := &Table{ID: t.ID, Title: t.Title, Header: t.Header, Notes: t.Notes}
		wall := make([]bool, len(t.Header))
		for i, h := range t.Header {
			wall[i] = strings.Contains(h, "(wall")
		}
		for _, row := range t.Rows {
			out := make([]string, len(row))
			for i, c := range row {
				_, err := time.ParseDuration(c)
				if err == nil || (i < len(wall) && wall[i]) {
					out[i] = "<wall-clock>"
				} else {
					out[i] = c
				}
			}
			masked.Rows = append(masked.Rows, out)
		}
		masked.FprintCSV(&sb)
	}
	return sb.String()
}

// TestSerialParallelDeterminism is the tentpole's core guarantee: for
// every registry experiment, a parallel run renders byte-identical
// output to the package's one serial run (serialQuick). Workers is
// forced above one so the pool path is exercised even on a single-core
// host, and each parallel run has a private plan cache, so the check
// also holds the shared cache to producing the tables of a cold one.
func TestSerialParallelDeterminism(t *testing.T) {
	q := serialQuick()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serialTabs := q.experiment(t, e)
			parTabs, err := e.Run(Options{Quick: true, Parallel: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			serial, par := renderCSV(serialTabs), renderCSV(parTabs)
			if serial != par {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
		})
	}
}

// tune.RunCells, the harness's worker pool, must execute every index
// exactly once in both modes and return the lowest-indexed error
// regardless of completion order.
func TestRunCells(t *testing.T) {
	for _, par := range []bool{false, true} {
		var ran atomic.Int64
		hit := make([]atomic.Bool, 100)
		if err := tune.RunCells(par, 4, len(hit), func(i int) error {
			if hit[i].Swap(true) {
				t.Errorf("cell %d ran twice", i)
			}
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Errorf("parallel=%v: ran %d cells, want 100", par, ran.Load())
		}

		errLow, errHigh := errors.New("low"), errors.New("high")
		err := tune.RunCells(par, 4, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		// Serial mode stops at the first failure; parallel mode finishes
		// the batch. Both must surface the lowest-indexed error.
		if err != errLow {
			t.Errorf("parallel=%v: got error %v, want lowest-indexed %v", par, err, errLow)
		}
	}

	if err := tune.RunCells(false, 0, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero cells must be a no-op, got %v", err)
	}
}

// A shared cache must be reused across experiments: running the same
// experiment twice against one cache compiles nothing the second time.
func TestSharedCacheAcrossRuns(t *testing.T) {
	cache := backend.NewCache()
	opts := Options{Quick: true, Cache: cache}
	if _, err := Figure10b(opts); err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if first.Misses == 0 {
		t.Fatal("first run should populate the cache")
	}
	if _, err := Figure10b(opts); err != nil {
		t.Fatal(err)
	}
	second := cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("second run recompiled: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Error("second run should be served from the cache")
	}
}
