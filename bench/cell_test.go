package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCellOf(t *testing.T) {
	c := cellOf(4, 1, 3, 2)
	if c.Median != 2.5 || c.Min != 1 || c.Max != 4 || c.N != 4 {
		t.Errorf("cellOf(4,1,3,2) = %+v", c)
	}
	// Quartiles by the exclusive method, as Python's statistics.quantiles
	// gives them for 1..10: 2.75 and 8.25.
	ten := cellOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if ten.Q1 != 2.75 || ten.Q3 != 8.25 || ten.spread() != 1 {
		t.Errorf("cellOf(1..10) = %+v spread %v", ten, ten.spread())
	}
	if c := cellOf(7); c.Median != 7 || c.spread() != 0 {
		t.Errorf("cellOf(7) = %+v spread %v", c, c.spread())
	}
	if (cell{}).spread() != 0 {
		t.Error("the zero cell has no spread")
	}
}

func TestCompareCells(t *testing.T) {
	tight := func(v float64) cell { return cellOf(v*0.99, v*0.995, v, v*1.005, v*1.01) }
	wide := func(v float64) cell { return cellOf(v*0.8, v*0.85, v, v*1.15, v*1.2) }
	cases := []struct {
		name       string
		base, cand cell
		better     string
		bound      float64
		want       string
	}{
		{"lower: same", tight(100), tight(100), "lower", 0.1, verdictOK},
		{"lower: better", tight(100), tight(50), "lower", 0.1, verdictOK},
		{"lower: worse inside the bound", tight(100), tight(109), "lower", 0.1, verdictOK},
		{"lower: worse past the bound", tight(100), tight(111), "lower", 0.1, verdictWorse},
		{"higher: drop past the bound", tight(100), tight(89), "higher", 0.1, verdictWorse},
		{"higher: rise", tight(100), tight(130), "higher", 0.1, verdictOK},
		{"base spread wider than the bound", wide(100), tight(100), "lower", 0.1, verdictUnresolved},
		{"candidate spread wider than the bound", tight(100), wide(150), "lower", 0.1, verdictUnresolved},
		{"a wide bound resolves a wide spread", wide(100), wide(100), "lower", 0.5, verdictOK},
	}
	for _, c := range cases {
		if got, _ := compareCells(c.base, c.cand, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func docOf(tput, p50 float64, failed int64) *resultDoc {
	return &resultDoc{Runs: 1, Workloads: []workloadResult{{
		Workload: "w", Correct: failed == 0, Attempted: 1000, Failed: failed,
		EndToEnd: map[string]metric{
			"tput_ops_s": {cell: cellOf(tput), Unit: "ops/s"},
			"lat_p50_us": {cell: cellOf(p50), Unit: "us"},
		},
	}}}
}

func TestCompareAndMergeDocs(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "tput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	var out bytes.Buffer
	if bad := compareDocs(&out, sp, docOf(1000, 50, 0), docOf(1020, 51, 0)); bad != 0 {
		t.Errorf("near-identical documents: %d rows not ok\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareDocs(&out, sp, docOf(1000, 50, 0), docOf(800, 50, 0)); bad != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 20%% throughput drop: %d rows not ok\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareDocs(&out, sp, docOf(1000, 50, 0), docOf(1000, 50, 3)); bad != 1 {
		t.Errorf("new failures must be a row that is not ok, got %d\n%s", bad, out.String())
	}

	out.Reset()
	incorrect := docOf(1000, 50, 0)
	incorrect.Workloads[0].Correct = false
	if bad := compareDocs(&out, sp, docOf(1000, 50, 0), incorrect); bad != 1 {
		t.Errorf("a candidate that is not correct must be a row that is not ok, got %d\n%s", bad, out.String())
	}
	out.Reset()
	silent := docOf(1000, 50, 0)
	delete(silent.Workloads[0].EndToEnd, "tput_ops_s")
	if bad := compareDocs(&out, sp, docOf(1000, 50, 0), silent); bad != 1 || !strings.Contains(out.String(), "missing") {
		t.Errorf("a declared metric the candidate stopped emitting must be a row that is not ok, got %d\n%s", bad, out.String())
	}

	// Merged cells are over the runs' medians, so their width is the
	// run-to-run spread: three runs 20 % apart cannot resolve a 10 % bound.
	// (Three runs have no quartiles; the extremes stand in.)
	merged := mergeDocs([]*resultDoc{docOf(900, 50, 0), docOf(1000, 50, 0), docOf(1100, 50, 0)})
	if merged.Runs != 3 {
		t.Errorf("merged runs = %d, want 3", merged.Runs)
	}
	got := merged.Workloads[0].EndToEnd["tput_ops_s"]
	if got.Median != 1000 || got.Min != 900 || got.Max != 1100 || got.N != 3 || got.Unit != "ops/s" {
		t.Errorf("merged tput cell = %+v", got)
	}
	out.Reset()
	if bad := compareDocs(&out, sp, merged, merged); bad != 1 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a 20%% run-to-run spread under a 10%% bound must be unresolved: %d\n%s", bad, out.String())
	}
}
