package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// cell is the one shape every reported value has: the median of n
// observations with their extremes and, from four observations up,
// their quartiles. Within a run the observations are slices, trials or
// set-ups; in a merged document they are the medians of whole runs.
type cell struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantileAt is the exclusive-method quantile (position q*(n+1), linear
// interpolation, clamped to the data): the rule of Python's
// statistics.quantiles, which the driver applies to its own runs.
func quantileAt(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

func cellOf(vals ...float64) cell {
	if len(vals) == 0 {
		return cell{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	c := cell{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
	if len(s) >= 4 {
		c.Q1, c.Q3 = quantileAt(s, 0.25), quantileAt(s, 0.75)
	}
	return c
}

// spread is the cell's width as a share of its median: the distance
// between the quartiles when there are enough observations to have
// quartiles, else between the extremes.
func (c cell) spread() float64 {
	if c.Median == 0 {
		return 0
	}
	lo, hi := c.Min, c.Max
	if c.N >= 4 {
		lo, hi = c.Q1, c.Q3
	}
	return math.Abs((hi - lo) / c.Median)
}

// metric is a cell with its unit and, for ratios and percentiles, the
// base or sample count a reader needs beside it.
type metric struct {
	cell
	Unit string `json:"unit"`
	Note string `json:"note,omitempty"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// resultDoc is the file `bench` writes and `-compare` / `-merge` read.
type resultDoc struct {
	Nproc     int              `json:"nproc"`
	GoVersion string           `json:"go"`
	Runs      int              `json:"runs"`
	Workloads []workloadResult `json:"workloads"`
}

func readDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func writeDoc(path string, d *resultDoc) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// mergeDocs folds several runs of the same commit into one document
// whose cells are over the runs' medians, so a cell's min..max is the
// run-to-run spread -compare judges against.
func mergeDocs(docs []*resultDoc) *resultDoc {
	out := &resultDoc{}
	byName := map[string]*workloadResult{}
	vals := map[string][]float64{} // workload/e|p/metric -> run medians
	var order []string
	for _, d := range docs {
		out.Nproc, out.GoVersion = d.Nproc, d.GoVersion
		out.Runs += max(d.Runs, 1)
		for i := range d.Workloads {
			w := &d.Workloads[i]
			m := byName[w.Workload]
			if m == nil {
				m = &workloadResult{Workload: w.Workload, Seed: w.Seed, Seconds: w.Seconds, Correct: true,
					EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
				byName[w.Workload] = m
				order = append(order, w.Workload)
			}
			m.Correct = m.Correct && w.Correct
			m.Attempted += w.Attempted
			m.Failed += w.Failed
			for k, v := range w.EndToEnd {
				key := w.Workload + "/e/" + k
				vals[key] = append(vals[key], v.Median)
				m.EndToEnd[k] = metric{Unit: v.Unit}
			}
			for k, v := range w.PerLayer {
				key := w.Workload + "/p/" + k
				vals[key] = append(vals[key], v.Median)
				m.PerLayer[k] = metric{Unit: v.Unit}
			}
		}
	}
	for _, name := range order {
		m := byName[name]
		for k, v := range m.EndToEnd {
			v.cell = cellOf(vals[name+"/e/"+k]...)
			m.EndToEnd[k] = v
		}
		for k, v := range m.PerLayer {
			v.cell = cellOf(vals[name+"/p/"+k]...)
			m.PerLayer[k] = v
		}
		out.Workloads = append(out.Workloads, *m)
	}
	return out
}

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the only place bounds live.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

// readSpec finds BENCHMARK.json from either the repository root or
// the bench directory, the two places the program is started from.
func readSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// Verdicts of compareCells.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareCells judges one (workload, metric) pair. The bound is the
// share of the base median by which the candidate may be worse. When
// either side's own spread is wider than the bound the two cannot be
// told apart at that resolution, and the pair is unresolved rather
// than ok.
func compareCells(base, cand cell, better string, bound float64) (verdict string, worseBy float64) {
	if base.Median != 0 {
		worseBy = (cand.Median - base.Median) / base.Median
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	if base.spread() > bound || cand.spread() > bound {
		return verdictUnresolved, worseBy
	}
	if worseBy > bound {
		return verdictWorse, worseBy
	}
	return verdictOK, worseBy
}

// compareDocs prints one row per (workload, end-to-end metric) and
// returns how many rows were not ok.
func compareDocs(w io.Writer, sp *spec, base, cand *resultDoc) int {
	bad := 0
	fmt.Fprintf(w, "%-13s %-20s %-10s %14s %14s %9s %8s  %s\n",
		"workload", "metric", "unit", "base", "candidate", "worse_by", "bound", "verdict")
	for _, bw := range base.Workloads {
		var cw *workloadResult
		for i := range cand.Workloads {
			if cand.Workloads[i].Workload == bw.Workload {
				cw = &cand.Workloads[i]
			}
		}
		if cw == nil {
			fmt.Fprintf(w, "%-13s missing from candidate\n", bw.Workload)
			bad++
			continue
		}
		if cw.Failed > bw.Failed || !cw.Correct {
			fmt.Fprintf(w, "%-13s %-20s %-10s %14d %14d %9s %8s  %s (candidate correct=%v)\n",
				bw.Workload, "failed", "count", bw.Failed, cw.Failed, "", "0", verdictWorse, cw.Correct)
			bad++
		}
		for _, sm := range sp.EndToEnd {
			b, okb := bw.EndToEnd[sm.Name]
			c, okc := cw.EndToEnd[sm.Name]
			if !okb || !okc {
				fmt.Fprintf(w, "%-13s %-20s missing (base has it: %v, candidate has it: %v)\n", bw.Workload, sm.Name, okb, okc)
				bad++
				continue
			}
			v, by := compareCells(b.cell, c.cell, sm.Better, sm.Bound)
			if v != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-20s %-10s %14.4f %14.4f %+8.1f%% %7.0f%%  %s\n",
				bw.Workload, sm.Name, sm.Unit, b.Median, c.Median, 100*by, 100*sm.Bound, v)
		}
	}
	return bad
}
