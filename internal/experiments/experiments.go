// Package experiments implements the evaluation suite E1–E8 defined in
// DESIGN.md. The paper is a HotOS position paper with no tables or
// figures of its own, so each experiment operationalizes one of its
// claims or worked examples; EXPERIMENTS.md records expectation vs
// measurement. Every experiment returns a Table, whose claims the
// package's tests check.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/trace"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// primeTrace builds the history a corpus query needs.
func primeTrace(db *engine.DB, w apps.WorkloadQuery) (*trace.Trace, error) {
	tr := &trace.Trace{}
	if w.PrimeSQL == "" {
		return tr, nil
	}
	sel, err := sqlparser.ParseSelect(w.PrimeSQL)
	if err != nil {
		return nil, err
	}
	bound, err := sqlparser.Bind(sel, sqlparser.PositionalArgs(w.PrimeArgs...))
	if err != nil {
		return nil, err
	}
	res, err := db.Query(bound.(*sqlparser.SelectStmt))
	if err != nil {
		return nil, err
	}
	tr.Append(trace.Entry{
		SQL: w.PrimeSQL, Stmt: sel, Args: sqlparser.PositionalArgs(w.PrimeArgs...),
		Columns: res.Columns, Rows: res.Rows,
	})
	return tr, nil
}

// RunE1 produces Table 1: the enforcement decision matrix — every
// corpus query of every fixture, the ground-truth label, and the
// checker's decision; the paper's Example 2.1 rows are called out.
func RunE1() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Enforcement correctness (decision matrix, §2.2 / Example 2.1)",
		Columns: []string{"app", "query", "want", "got", "verdict"},
	}
	total, correct := 0, 0
	for _, f := range apps.All() {
		db := f.MustNewDB(24)
		chk := checker.New(f.Policy())
		for _, w := range f.Corpus {
			tr, err := primeTrace(db, w)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", f.Name, w.Label, err)
			}
			d, err := chk.CheckSQL(context.Background(), w.SQL, sqlparser.PositionalArgs(w.Args...), f.Session(w.UId), tr)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", f.Name, w.Label, err)
			}
			total++
			verdict := "MISMATCH"
			if d.Allowed == w.WantAllowed {
				verdict = "ok"
				correct++
			}
			t.Add(f.Name, w.Label, allowStr(w.WantAllowed), allowStr(d.Allowed), verdict)
		}
	}
	t.Note("accuracy: %d/%d decisions match the ground-truth labels", correct, total)
	return t, nil
}

func allowStr(b bool) string {
	if b {
		return "allow"
	}
	return "block"
}

// LatencyPoint is one E2 measurement.
type LatencyPoint struct {
	Config string
	NsOp   float64
}

// RunE2 produces Figure 1: per-query decision+execution latency for
// passthrough, cold checker, cached checker, and the RLS baseline, on
// the calendar workload, plus the latency-vs-view-count series.
func RunE2(dbSize, iters int) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Enforcement latency (proxy configurations, §2.1-§2.2)",
		Columns: []string{"config", "ns/op", "relative"},
	}
	f := apps.Calendar()
	db := f.MustNewDB(dbSize)
	w := f.Corpus[0] // own-attendance point query
	sel := sqlparser.MustParseSelect(w.SQL)
	argv := sqlparser.PositionalArgs(w.Args...)
	sess := f.Session(w.UId)
	bound, err := sqlparser.Bind(sel, argv)
	if err != nil {
		return nil, err
	}
	bsel := bound.(*sqlparser.SelectStmt)

	// The median of five passes, which interleave across the
	// configurations measured together: a burst of load lands on one
	// pass of each, not on every pass of one, and moves no median.
	measure := func(fns ...func() error) ([]float64, error) {
		const passes = 5
		per := make([][passes]float64, len(fns))
		for pass := 0; pass < passes; pass++ {
			for k, fn := range fns {
				start := time.Now()
				for i := 0; i < iters; i++ {
					if err := fn(); err != nil {
						return nil, err
					}
				}
				per[k][pass] = float64(time.Since(start).Nanoseconds()) / float64(iters)
			}
		}
		med := make([]float64, len(fns))
		for k := range per {
			slices.Sort(per[k][:])
			med[k] = per[k][passes/2]
		}
		return med, nil
	}

	coldChk := checker.New(f.Policy())
	cachedChk := checker.New(f.Policy())
	cachedChk.Check(context.Background(), sel, argv, sess, nil) // warm the template
	rls := baseline.MustNewRLS(f.Schema, f.RLSRules)
	// The decision-only rows are the stable signal for the cached-vs-cold
	// comparison. "decision only, cached" decides without a session
	// trace, which bypasses the history-free stage: the template stage
	// answers. Under a trace, as every proxy decision runs, the repeat is
	// a history-free hit.
	tr := &trace.Trace{}
	cachedChk.Check(context.Background(), sel, argv, sess, tr)
	ns, err := measure(
		func() error { // passthrough
			_, e := db.Query(bsel)
			return e
		},
		func() error { // checker cold
			coldChk.CheckCold(context.Background(), sel, argv, sess, nil)
			_, e := db.Query(bsel)
			return e
		},
		func() error { // checker cached
			cachedChk.Check(context.Background(), sel, argv, sess, nil)
			_, e := db.Query(bsel)
			return e
		},
		func() error { // RLS query modification
			rw, e := rls.Rewrite(sel, sess)
			if e != nil {
				return e
			}
			rb, e := sqlparser.Bind(rw, argv)
			if e != nil {
				return e
			}
			_, e = db.Query(rb.(*sqlparser.SelectStmt))
			return e
		},
		func() error { // decision only, cold
			coldChk.CheckCold(context.Background(), sel, argv, sess, nil)
			return nil
		},
		func() error { // decision only, cached
			cachedChk.Check(context.Background(), sel, argv, sess, nil)
			return nil
		},
		func() error { // decision only, cached (histfree tier)
			cachedChk.Check(context.Background(), sel, argv, sess, tr)
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	pass, cold, cached, rlsNs, decCold, decCached, decHistFree := ns[0], ns[1], ns[2], ns[3], ns[4], ns[5], ns[6]

	rel := func(x float64) string { return fmt.Sprintf("%.2fx", x/pass) }
	t.Add("passthrough (no enforcement)", fmt.Sprintf("%.0f", pass), "1.00x")
	t.Add("checker cold (no decision cache)", fmt.Sprintf("%.0f", cold), rel(cold))
	t.Add("checker cached (decision templates)", fmt.Sprintf("%.0f", cached), rel(cached))
	t.Add("RLS query modification", fmt.Sprintf("%.0f", rlsNs), rel(rlsNs))
	t.Add("decision only, cold", fmt.Sprintf("%.0f", decCold), rel(decCold))
	t.Add("decision only, cached", fmt.Sprintf("%.0f", decCached), rel(decCached))
	t.Add("decision only, cached (histfree tier)", fmt.Sprintf("%.0f", decHistFree), rel(decHistFree))
	t.Note("expected shape: cached ≈ passthrough ≪ cold (Blockaid's headline result)")

	// Series: cold decision latency vs number of views.
	nviews := []int{1, 2, 4, 8, 16}
	fns := make([]func() error, len(nviews))
	for k, n := range nviews {
		chk := checker.New(SyntheticPolicy(f, n))
		fns[k] = func() error {
			chk.CheckCold(context.Background(), sel, argv, sess, nil)
			return nil
		}
	}
	if ns, err = measure(fns...); err != nil {
		return nil, err
	}
	for k, n := range nviews {
		t.Add(fmt.Sprintf("cold decision, %d views", n), fmt.Sprintf("%.0f", ns[k]), rel(ns[k]))
	}
	return t, nil
}

// RunE3 produces Table 2: decision-template hit rate over the corpus
// replayed across principals, and the history on/off ablation.
func RunE3() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Decision cache and history ablation (§2.2)",
		Columns: []string{"app", "cacheHitRate", "allowedWithHistory", "allowedWithoutHistory", "historyOnlyQueries"},
	}
	for _, f := range apps.All() {
		db := f.MustNewDB(24)
		chk := checker.New(f.Policy())
		// The ablation decides without the trace.
		chkNoHist := checker.New(f.Policy())

		allowedHist, allowedNo, historyOnly := 0, 0, 0
		// Replay the corpus for three principals: identical templates
		// across principals should hit the cache.
		for _, uid := range []int64{1, 2, 3} {
			for _, w := range f.Corpus {
				tr, err := primeTrace(db, w)
				if err != nil {
					return nil, err
				}
				d, err := chk.CheckSQL(context.Background(), w.SQL, sqlparser.PositionalArgs(w.Args...), f.Session(uid), tr)
				if err != nil {
					return nil, err
				}
				dn, err := chkNoHist.CheckSQL(context.Background(), w.SQL, sqlparser.PositionalArgs(w.Args...), f.Session(uid), nil)
				if err != nil {
					return nil, err
				}
				if d.Allowed {
					allowedHist++
				}
				if dn.Allowed {
					allowedNo++
				}
				if d.Allowed && !dn.Allowed {
					historyOnly++
				}
			}
		}
		st := chk.Stats()
		hitRate := float64(st.CacheHits) / float64(st.Decisions)
		t.Add(f.Name,
			fmt.Sprintf("%.2f", hitRate),
			fmt.Sprintf("%d", allowedHist),
			fmt.Sprintf("%d", allowedNo),
			fmt.Sprintf("%d", historyOnly))
	}
	t.Note("historyOnlyQueries > 0 shows history-aware vetting strictly dominates (Example 2.1)")
	return t, nil
}
