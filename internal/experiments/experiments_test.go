package experiments

import (
	"strconv"
	"strings"
	"testing"
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

func TestRunE2Shapes(t *testing.T) {
	tab, err := RunE2(32, 300)
	if err != nil {
		t.Fatal(err)
	}
	ns := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatalf("bad ns cell %q", r[1])
		}
		ns[r[0]] = v
	}
	pass := ns["passthrough (no enforcement)"]
	cold := ns["decision only, cold"]
	cached := ns["decision only, cached"]
	front := ns["decision only, cached (front tier)"]
	if pass <= 0 || cold <= 0 || cached <= 0 || front <= 0 {
		t.Fatalf("missing configs: %v", ns)
	}
	// The headline shape: a cached decision is cheaper than a cold one,
	// on every tier (end-to-end rows are dominated by query execution
	// and too noisy for a strict assertion). "decision only, cached" is
	// decided without a trace and so is a template-cache hit; the
	// front-tier row is the hit a repeated proxy decision takes. The
	// template row was not assertable between the compiled cover search
	// and statement plans: a hit bound, translated and canonically keyed
	// the statement, which cost more than this one-atom query's whole
	// cold decision (EXPERIMENTS.md E2). A hit now fills the plan's slots
	// and probes.
	if front >= cold {
		t.Errorf("front-tier decision (%v) should beat cold (%v)", front, cold)
	}
	if cached >= cold {
		t.Errorf("template-cache hit (%v) should beat cold (%v)", cached, cold)
	}
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
	if _, nqi := cell("hospital", "SPatientDisease"); nqi != "true" {
		t.Error("hospital SPatientDisease must be flagged NQI")
	}
	// Example 4.2 rows.
	if pqi, _ := cell("example4.2", "Q2 given {Q1}"); pqi != "true" {
		t.Error("Example 4.2 PQI must hold")
	}
	if _, nqi := cell("example4.2", "Q1 given {Q2}"); nqi != "true" {
		t.Error("Example 4.2 NQI must hold")
	}
	// SSalaries is PQI-flagged: VOwnRecord makes the principal's own
	// salary a certain answer (self-disclosure). Scoped to other
	// principals, the finding disappears.
	if pqi, _ := cell("employees", "SSalaries"); pqi != "true" {
		t.Error("SSalaries should be PQI-flagged via VOwnRecord self-disclosure")
	}
	if pqi, _ := cell("employees", "SOthersSalaries"); pqi != "false" {
		t.Error("other principals' salaries must not be PQI-disclosed")
	}
	// The adults roster is PQI-disclosed via VSeniors (subset
	// certainty), matching Example 4.2.
	if pqi, _ := cell("employees", "SAdults"); pqi != "true" {
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
