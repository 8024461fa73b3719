package experiments

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/sqlparser"
	"repro/internal/trace"
)

func TestRunE1AllDecisionsCorrect(t *testing.T) {
	tab, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[4] != "ok" {
			t.Errorf("E1 mismatch: %v", r)
		}
	}
	if len(tab.Rows) < 30 {
		t.Errorf("E1 corpus too small: %d rows", len(tab.Rows))
	}
}

// e2Nanos runs E2 (each configuration's median of five passes
// interleaved across its configurations) and returns each
// configuration's ns per operation, failing on a missing or malformed
// row.
func e2Nanos(tb testing.TB) map[string]float64 {
	tb.Helper()
	tab, err := RunE2(32, 300)
	if err != nil {
		tb.Fatal(err)
	}
	ns := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			tb.Fatalf("bad ns cell %q", r[1])
		}
		ns[r[0]] = v
	}
	for _, c := range []string{e2Pass, e2Cold, e2Cached, e2Histfree} {
		if ns[c] <= 0 {
			tb.Fatalf("missing config %q: %v", c, ns)
		}
	}
	return ns
}

const (
	e2Pass     = "passthrough (no enforcement)"
	e2Cold     = "decision only, cold"
	e2Cached   = "decision only, cached"
	e2Histfree = "decision only, cached (histfree tier)"
)

// TestRunE2Shapes: E2 runs and reports every configuration. Its
// wall-clock shape is BenchmarkE2HitsBeatColdGuard's, out of go test;
// TestE2HitsRunNoCoverStage checks deterministically what that timing
// stands for.
func TestRunE2Shapes(t *testing.T) { e2Nanos(t) }

// BenchmarkE2HitsBeatColdGuard is a wall-clock gate, so plain go test
// never runs it: `make timingguard` runs it once (-benchtime=1x). It
// asserts E2's headline shape: a cached decision is cheaper than a cold
// one, on every tier (end-to-end rows are dominated by query execution
// and too noisy for a strict assertion). "decision only, cached" is
// decided without a trace and so is a template-cache hit; the
// histfree-tier row is the hit a repeated proxy decision takes. The
// template row was not assertable between the compiled cover search
// and statement plans: a hit bound, translated and canonically keyed
// the statement, which cost more than this one-atom query's whole cold
// decision (EXPERIMENTS.md E2). A hit now fills the plan's slots and
// probes.
//
// A round runs E2 nine times and takes, per tier, the median of the
// runs' hit/cold ratios and their spread (interquartile range). A round
// whose medians are all below 1 passes. One with a median at 1 or over
// by more than its spread fails at once: a real regression moves every
// run. One in between, where noise could have put a median over, runs
// again, up to four rounds.
func BenchmarkE2HitsBeatColdGuard(b *testing.B) {
	const runs, rounds = 9, 4
	tiers := []string{e2Histfree, e2Cached}
	var seen []string
	for range rounds {
		ratios := map[string][]float64{}
		for range runs {
			ns := e2Nanos(b)
			for _, tier := range tiers {
				ratios[tier] = append(ratios[tier], ns[tier]/ns[e2Cold])
			}
		}
		pass, clear := true, false
		for _, tier := range tiers {
			med, spread := medianSpread(ratios[tier])
			b.Logf("%s / %s: median %.3f, spread %.3f over %d runs", tier, e2Cold, med, spread, runs)
			if med >= 1 {
				pass = false
				clear = clear || med-1 > spread
				seen = append(seen, fmt.Sprintf("%s %.3f (spread %.3f)", tier, med, spread))
			}
		}
		if pass {
			return
		}
		if clear {
			break
		}
	}
	b.Errorf("a cache hit did not beat the cold decision: median hit/cold ratios %s", strings.Join(seen, ", "))
}

// medianSpread returns the median of xs and their interquartile range.
func medianSpread(xs []float64) (med, spread float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return q(0.5), q(0.75) - q(0.25)
}

func TestRunE3HistoryMatters(t *testing.T) {
	tab, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	foundHistory := false
	for _, r := range tab.Rows {
		if r[0] == "calendar" {
			n, _ := strconv.Atoi(r[4])
			if n > 0 {
				foundHistory = true
			}
			hit, _ := strconv.ParseFloat(r[1], 64)
			if hit <= 0 {
				t.Errorf("calendar cache hit rate should be positive: %v", r)
			}
		}
	}
	if !foundHistory {
		t.Error("calendar must have history-only queries (Example 2.1)")
	}
}

func TestRunE4ExtractionQuality(t *testing.T) {
	tab, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		rec, _ := strconv.ParseFloat(r[3], 64)
		prec, _ := strconv.ParseFloat(r[4], 64)
		if r[1] == "symbolic" {
			if rec < 1 || prec < 1 {
				t.Errorf("symbolic extraction should be exact on %s: %v", r[0], r)
			}
		}
		if r[1] == "black-box" && rec < 0.5 {
			t.Errorf("black-box recall too low on %s: %v", r[0], r)
		}
		if r[1] == "explored" && (rec < 1 || prec < 1) {
			t.Errorf("auto-explored mining should be exact on %s: %v", r[0], r)
		}
	}
}

func TestRunE5Ablations(t *testing.T) {
	tab, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][2]float64{}
	for _, r := range tab.Rows {
		rec, _ := strconv.ParseFloat(r[2], 64)
		prec, _ := strconv.ParseFloat(r[3], 64)
		vals[r[0]] = [2]float64{rec, prec}
	}
	full := vals["full (2 principals, hints, guards, minimize)"]
	if full[0] < 1 || full[1] < 1 {
		t.Errorf("full configuration should be exact: %v", full)
	}
	if v := vals["single principal"]; v[0] >= 1 {
		t.Errorf("single principal should lose recall: %v", v)
	}
	if v := vals["same-entity requests, hints on"]; v[0] < 1 {
		t.Errorf("opaque-ID hints should generalize the fixed event id: %v", v)
	}
	if v := vals["same-entity requests, hints off"]; v[0] >= 1 {
		t.Errorf("without hints a fixed event id stays constant: %v", v)
	}
	if v := vals["no guard inference"]; v[1] >= 1 {
		t.Errorf("no-guards should lose precision: %v", v)
	}
	if v := vals["with mutation probing"]; v[0] < 1 || v[1] < 1 {
		t.Errorf("probing should confirm the real guard and stay exact: %v", v)
	}
}

func TestRunE6Disclosure(t *testing.T) {
	tab, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(app, q string) (string, string) {
		for _, r := range tab.Rows {
			if r[0] == app && r[1] == q {
				return r[2], r[3]
			}
		}
		t.Fatalf("missing row %s/%s", app, q)
		return "", ""
	}
	// Example 4.1: hospital sensitive query flagged via NQI.
	if _, nqi := cell("hospital", "SPatientDisease"); nqi != "witness" {
		t.Error("hospital SPatientDisease must be flagged NQI")
	}
	// Example 4.2 rows.
	if pqi, _ := cell("example4.2", "Q2 given {Q1}"); pqi != "witness" {
		t.Error("Example 4.2 PQI must hold")
	}
	if _, nqi := cell("example4.2", "Q1 given {Q2}"); nqi != "witness" {
		t.Error("Example 4.2 NQI must hold")
	}
	// SSalaries is PQI-flagged: VOwnRecord makes the principal's own
	// salary a certain answer (self-disclosure). Scoped to other
	// principals, the finding disappears.
	if pqi, _ := cell("employees", "SSalaries"); pqi != "witness" {
		t.Error("SSalaries should be PQI-flagged via VOwnRecord self-disclosure")
	}
	if pqi, _ := cell("employees", "SOthersSalaries"); pqi != "no witness found" {
		t.Error("other principals' salaries must not be PQI-disclosed")
	}
	// The adults roster is PQI-disclosed via VSeniors (subset
	// certainty), matching Example 4.2.
	if pqi, _ := cell("employees", "SAdults"); pqi != "witness" {
		t.Error("SAdults should be PQI-flagged via VSeniors")
	}
	hasBayes := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "bayesian") {
			hasBayes = true
		}
	}
	if !hasBayes {
		t.Error("E6 must include the Bayesian prior-sensitivity note")
	}
}

func TestRunE7Scaling(t *testing.T) {
	tab, err := RunE7(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 7 {
		t.Fatalf("E7 rows: %d", len(tab.Rows))
	}
}

func TestRunE8Diagnosis(t *testing.T) {
	tab, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	counterexamples := 0
	for _, r := range tab.Rows {
		if r[2] == "yes" {
			counterexamples++
		}
	}
	if counterexamples == 0 {
		t.Error("E8 should find counterexamples for blocked queries")
	}
	// The calendar event-no-probe row is the paper's Example 2.1; it
	// must have an access check.
	found := false
	for _, r := range tab.Rows {
		if r[0] == "calendar" && r[1] == "event-no-probe" {
			found = true
			if r[4] == "0" {
				t.Errorf("event-no-probe should have an access check: %v", r)
			}
		}
	}
	if !found {
		t.Error("missing calendar/event-no-probe row")
	}
}

func TestRunE8Retention(t *testing.T) {
	tab, err := RunE8Retention()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E8b empty")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "test", Columns: []string{"a", "b"}}
	tab.Add("1", "2")
	tab.Note("hello %d", 7)
	out := tab.String()
	for _, want := range []string{"== X: test ==", "a", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestE2HitsRunNoCoverStage is BenchmarkE2HitsBeatColdGuard's
// deterministic twin: it checks, in counters and allocations instead of
// time, why E2's cached rows beat its cold one. On E2's statement a repeat decision with no
// trace (the "decision only, cached" row) is a template hit, and under a
// trace (the histfree-tier row) a history-free hit; neither runs a
// cover search (each counts the views it kept or pruned), and neither
// allocates through CheckBorrowed (Check, which E2 times, adds only its
// defensive Views copy).
func TestE2HitsRunNoCoverStage(t *testing.T) {
	f := apps.Calendar()
	w := f.Corpus[0]
	sel := sqlparser.MustParseSelect(w.SQL)
	argv := sqlparser.PositionalArgs(w.Args...)
	sess := f.Session(w.UId)
	ctx := context.Background()
	chk := checker.New(f.Policy())
	reg := chk.Metrics()
	searched := func() int64 {
		return reg.Counter("checker.cold.views.kept").Value() + reg.Counter("checker.cold.views.pruned").Value()
	}
	for _, tc := range []struct {
		tier string
		tr   *trace.Trace
	}{
		{checker.TierTemplate, nil},
		{checker.TierHistFree, &trace.Trace{}},
	} {
		if d := chk.Check(ctx, sel, argv, sess, tc.tr); !d.Allowed {
			t.Fatalf("%s: priming decision %+v, want allowed", tc.tier, d)
		}
		before := searched()
		var d checker.Decision
		allocs := testing.AllocsPerRun(100, func() { d = chk.CheckBorrowed(ctx, sel, argv, sess, tc.tr) })
		if !d.Allowed || d.Tier != tc.tier {
			t.Errorf("repeat decision %+v, want allowed on the %s tier", d, tc.tier)
		}
		if n := searched() - before; n != 0 {
			t.Errorf("%s hits searched %d views, want 0", tc.tier, n)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("a %s hit allocates %v times, want 0", tc.tier, allocs)
		}
	}
	if searched() == 0 {
		t.Error("the cold priming decision searched no view: the counters count nothing")
	}
}
