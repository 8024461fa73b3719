// Package experiments implements the evaluation suite E1–E8 defined in
// DESIGN.md. The paper is a HotOS position paper with no tables or
// figures of its own, so each experiment operationalizes one of its
// claims or worked examples; EXPERIMENTS.md records expectation vs
// measurement. Every experiment returns a Table the benchmark harness
// and cmd/acbench print.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
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
	rows := make([][]sqlvalue.Value, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	tr.Append(trace.Entry{
		SQL: w.PrimeSQL, Stmt: sel, Args: sqlparser.PositionalArgs(w.PrimeArgs...),
		Columns: res.Columns, Rows: rows,
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

	// Best-of-3 passes: the minimum mean is the least noisy estimator
	// of the true cost, which keeps the cached-vs-cold comparison
	// stable even under the race detector's scheduling jitter.
	measure := func(fn func() error) (float64, error) {
		best := math.MaxFloat64
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := fn(); err != nil {
					return 0, err
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
				best = ns
			}
		}
		return best, nil
	}

	pass, err := measure(func() error {
		_, e := db.Query(bsel)
		return e
	})
	if err != nil {
		return nil, err
	}

	coldOpts := checker.DefaultOptions()
	coldOpts.UseCache = false
	coldChk := checker.NewWithOptions(f.Policy(), coldOpts)
	cold, err := measure(func() error {
		coldChk.Check(context.Background(), sel, argv, sess, nil)
		_, e := db.Query(bsel)
		return e
	})
	if err != nil {
		return nil, err
	}

	cachedChk := checker.New(f.Policy())
	cachedChk.Check(context.Background(), sel, argv, sess, nil) // warm the template
	cached, err := measure(func() error {
		cachedChk.Check(context.Background(), sel, argv, sess, nil)
		_, e := db.Query(bsel)
		return e
	})
	if err != nil {
		return nil, err
	}

	rls := baseline.MustNewRLS(f.Schema, f.RLSRules)
	rlsNs, err := measure(func() error {
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
	})
	if err != nil {
		return nil, err
	}

	// Decision-only costs (no query execution), the stable signal for
	// the cached-vs-cold comparison.
	decCold, err := measure(func() error {
		coldChk.Check(context.Background(), sel, argv, sess, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	decCached, err := measure(func() error {
		cachedChk.Check(context.Background(), sel, argv, sess, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The rows above decide without a session trace, which bypasses the
	// tiers above the template cache. Under a trace, as every proxy
	// decision runs, the repeat is a front-tier hit.
	tr := &trace.Trace{}
	cachedChk.Check(context.Background(), sel, argv, sess, tr)
	decFront, err := measure(func() error {
		cachedChk.Check(context.Background(), sel, argv, sess, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rel := func(x float64) string { return fmt.Sprintf("%.2fx", x/pass) }
	t.Add("passthrough (no enforcement)", fmt.Sprintf("%.0f", pass), "1.00x")
	t.Add("checker cold (no decision cache)", fmt.Sprintf("%.0f", cold), rel(cold))
	t.Add("checker cached (decision templates)", fmt.Sprintf("%.0f", cached), rel(cached))
	t.Add("RLS query modification", fmt.Sprintf("%.0f", rlsNs), rel(rlsNs))
	t.Add("decision only, cold", fmt.Sprintf("%.0f", decCold), rel(decCold))
	t.Add("decision only, cached", fmt.Sprintf("%.0f", decCached), rel(decCached))
	t.Add("decision only, cached (front tier)", fmt.Sprintf("%.0f", decFront), rel(decFront))
	t.Note("expected shape: cached ≈ passthrough ≪ cold (Blockaid's headline result)")

	// Series: cold decision latency vs number of views.
	for _, nviews := range []int{1, 2, 4, 8, 16} {
		p := SyntheticPolicy(f, nviews)
		chk := checker.NewWithOptions(p, coldOpts)
		ns, err := measure(func() error {
			chk.Check(context.Background(), sel, argv, sess, nil)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("cold decision, %d views", nviews), fmt.Sprintf("%.0f", ns), rel(ns))
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
		noHist := checker.DefaultOptions()
		noHist.UseHistory = false
		chkNoHist := checker.NewWithOptions(f.Policy(), noHist)

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
				dn, err := chkNoHist.CheckSQL(context.Background(), w.SQL, sqlparser.PositionalArgs(w.Args...), f.Session(uid), tr)
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
