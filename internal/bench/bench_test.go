package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/obs"
)

// heavyQuick lists the experiments skipped under -short.
var heavyQuick = map[string]bool{
	"table1": true, "fig3": true, "fig6": true, "fig7": true,
	"fig8": true, "fig9": true, "fig11": true, "fig13": true,
}

// quickRun is one serial run of the quick suite.
type quickRun struct {
	opts   Options
	tables map[string][]*Table
	errs   map[string]error
}

// serialQuick runs the quick suite once per test binary, the way
// `ressclbench -exp all -quick` does: serially, in registry order,
// sharing one plan cache and one metrics registry, with the heavy
// experiments left out under -short. TestAllExperimentsQuick checks
// its tables and counters; TestSerialParallelDeterminism compares
// parallel runs against its tables.
var serialQuick = sync.OnceValue(func() *quickRun {
	q := &quickRun{
		opts:   Options{Quick: true, Cache: backend.NewCache(), Metrics: obs.NewMetrics()},
		tables: map[string][]*Table{},
		errs:   map[string]error{},
	}
	for _, e := range Registry() {
		if testing.Short() && heavyQuick[e.ID] {
			continue
		}
		q.tables[e.ID], q.errs[e.ID] = e.Run(q.opts)
	}
	return q
})

// experiment returns the serial run's tables for e, skipping a heavy
// experiment under -short and failing on the run's error.
func (q *quickRun) experiment(t *testing.T, e Experiment) []*Table {
	t.Helper()
	if testing.Short() && heavyQuick[e.ID] {
		t.Skip("heavy experiment skipped in -short mode")
	}
	if err := q.errs[e.ID]; err != nil {
		t.Fatal(err)
	}
	return q.tables[e.ID]
}

// Every experiment must run to completion in Quick mode and produce
// non-empty tables. The heavy ones are skipped under -short.
//
// When every experiment ran, the serial run's deterministic counters
// must then equal the committed BENCH_baseline.json exactly; a drift
// means the experiments changed and the baseline must be regenerated
// deliberately (docs/performance.md).
func TestAllExperimentsQuick(t *testing.T) {
	q := serialQuick()
	ran := 0
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := q.experiment(t, e)
			ran++
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("table %q: row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
				}
				var sb strings.Builder
				tab.Fprint(&sb)
				if !strings.Contains(sb.String(), tab.Title) {
					t.Error("Fprint must include the title")
				}
			}
		})
	}
	if testing.Short() || ran != len(Registry()) {
		return
	}
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base PerfRecord
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	opts := q.opts
	cs := opts.Cache.Stats()
	for _, c := range []struct {
		key       string
		got, want int64
	}{
		{"sim_events", opts.Metrics.Counter("sim.events"), base.SimEvents},
		{"sim_runs", opts.Metrics.Counter("sim.runs"), base.SimRuns},
		{"rt_instances", opts.Metrics.Counter("rt.instances"), base.RTInstances},
		{"cache_hits", cs.Hits, base.CacheHits},
		{"cache_misses", cs.Misses, base.CacheMisses},
	} {
		if c.got != c.want {
			t.Errorf("determinism drift: %s = %d, BENCH_baseline.json has %d "+
				"(regenerate the baseline if the experiments changed)", c.key, c.got, c.want)
		}
	}
}

func TestFindUnknown(t *testing.T) {
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment must fail")
	}
	e, err := Find("fig4")
	if err != nil || e.ID != "fig4" {
		t.Errorf("Find(fig4) = %v, %v", e.ID, err)
	}
}

// Fig. 4's qualitative shape: bandwidth rises to the 4-TB peak and is
// strictly lower at high TB counts than at the peak.
func TestFigure4Shape(t *testing.T) {
	tables, err := Figure4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	bw := map[int]float64{}
	for _, r := range rows {
		k, _ := strconv.Atoi(r[0])
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		bw[k] = v
	}
	if !(bw[1] < bw[2] && bw[2] < bw[4]) {
		t.Errorf("bandwidth should rise up to 4 TBs: %v", bw)
	}
	if !(bw[16] < bw[4]) {
		t.Errorf("bandwidth at 16 TBs (%f) should fall below the 4-TB peak (%f)", bw[16], bw[4])
	}
}

// Fig. 10(b): HPDS must beat round-robin on at least one algorithm and
// never lose by more than a rounding margin.
func TestFigure10bHPDSWins(t *testing.T) {
	tables, err := Figure10b(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	won := false
	for _, row := range tables[0].Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp > 1.02 {
			won = true
		}
		if sp < 0.95 {
			t.Errorf("%s: HPDS slower than RR (%.2fx)", row[0], sp)
		}
	}
	if !won {
		t.Error("HPDS should beat RR on at least one algorithm")
	}
}

func TestBufSweepQuick(t *testing.T) {
	full := []int64{8 << 20, 64 << 20, 512 << 20, 2 << 30, 4 << 30}
	q := bufSweep(Options{Quick: true}, full)
	if len(q) != 3 {
		t.Fatalf("quick sweep has %d points, want 3", len(q))
	}
	if q[len(q)-1] > 512<<20 {
		t.Errorf("quick sweep should cap at 512MB, got %d", q[len(q)-1])
	}
	if got := bufSweep(Options{}, full); len(got) != len(full) {
		t.Error("full sweep must be unchanged")
	}
}

func TestLabels(t *testing.T) {
	if mbLabel(4<<30) != "4GB" || mbLabel(64<<20) != "64MB" || mbLabel(256<<10) != "256KB" {
		t.Error("mbLabel formatting wrong")
	}
	if pct(0.318) != "31.8%" {
		t.Errorf("pct(0.318) = %s", pct(0.318))
	}
	if gb(25e9) != "25.0" {
		t.Errorf("gb(25e9) = %s", gb(25e9))
	}
}

func TestTableFormats(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var csvOut, mdOut strings.Builder
	tab.FprintCSV(&csvOut)
	if !strings.Contains(csvOut.String(), "x,T,1,2") {
		t.Errorf("csv output wrong:\n%s", csvOut.String())
	}
	tab.FprintMarkdown(&mdOut)
	if !strings.Contains(mdOut.String(), "| 1 | 2 |") || !strings.Contains(mdOut.String(), "### x") {
		t.Errorf("markdown output wrong:\n%s", mdOut.String())
	}
}
