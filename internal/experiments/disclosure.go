package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/cq"
	"repro/internal/disclosure"
	"repro/internal/policy"
	"repro/internal/sqlvalue"
)

// RunE6 produces Table 4: the disclosure audit — PQI/NQI verdicts on
// every fixture's sensitive queries (reproducing Examples 4.1 and
// 4.2), hospital k-anonymity, and the Bayesian baseline's
// prior-sensitivity demonstration.
func RunE6() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Disclosure audit: PQI/NQI, k-anonymity, Bayesian baseline (§4)",
		Columns: []string{"app", "sensitive query", "PQI", "NQI"},
	}
	for _, f := range apps.All() {
		p := f.Policy()
		rep, err := disclosure.Audit(context.Background(), p, f.Sensitive)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		for _, fd := range rep.Findings {
			t.Add(f.Name, fd.Name, fd.PQI.Word(), fd.NQI.Word())
		}
	}

	// The paper's Example 4.2 pair, explicitly.
	emp := apps.Employees()
	p42 := policy.MustNew(emp.Schema, map[string]string{
		"Q1": "SELECT Name FROM Employees WHERE Age >= 60",
	})
	v, err := disclosure.PQISQL(p42, "SELECT Name FROM Employees WHERE Age >= 18")
	if err != nil {
		return nil, err
	}
	t.Add("example4.2", "Q2 given {Q1}", v.Word(), "-")
	p42b := policy.MustNew(emp.Schema, map[string]string{
		"Q2": "SELECT Name FROM Employees WHERE Age >= 18",
	})
	nv, err := disclosure.NQISQL(p42b, "SELECT Name FROM Employees WHERE Age >= 60")
	if err != nil {
		return nil, err
	}
	t.Add("example4.2", "Q1 given {Q2}", "-", nv.Word())

	// Hospital k-anonymity of the doctor-disease join release.
	hosp := apps.Hospital()
	hdb := hosp.MustNewDB(20)
	k, err := disclosure.KAnonymity(hdb,
		"SELECT p.DocId, t.Disease FROM Patients p JOIN Treats t ON p.DocId = t.DocId",
		[]string{"DocId"})
	if err != nil {
		return nil, err
	}
	t.Note("hospital: k-anonymity of the patient-doctor ⋈ doctor-disease release, quasi-identifier DocId: k = %d", k)

	// Bayesian prior-sensitivity (the §4.2 critique, quantified).
	uninformed, neighbor, err := bayesianShifts()
	if err != nil {
		return nil, err
	}
	t.Note("bayesian: uninformed prior shift %.3f -> %.3f (Δ %.3f); informed-neighbor prior %.3f -> %.3f (Δ %.3f) — the verdict depends on the prior",
		uninformed.PriorProb, uninformed.PosteriorProb, uninformed.Delta(),
		neighbor.PriorProb, neighbor.PosteriorProb, neighbor.Delta())
	return t, nil
}

// bayesianShifts reruns the hospital belief-shift computation for two
// priors.
func bayesianShifts() (disclosure.ShiftResult, disclosure.ShiftResult, error) {
	hosp := apps.Hospital()
	s := hosp.Schema
	p := hosp.Policy()

	john := sqlvalue.NewText("john")
	pneumonia := sqlvalue.NewText("pneumonia")
	tb := sqlvalue.NewText("tb")
	flu := sqlvalue.NewText("flu")
	doc1, doc2, pid := sqlvalue.NewInt(1), sqlvalue.NewInt(2), sqlvalue.NewInt(1)

	treats := [][]sqlvalue.Value{{doc1, pneumonia}, {doc1, tb}, {doc2, flu}}
	doctors := [][]sqlvalue.Value{
		{doc1, sqlvalue.NewText("dr1")},
		{doc2, sqlvalue.NewText("dr2")},
	}
	actual := cq.Instance{
		"treats":   treats,
		"doctors":  doctors,
		"patients": {{pid, john, doc1, pneumonia}},
	}
	fixed := cq.Instance{"treats": treats, "doctors": doctors}
	candidates := func(pPneu, pTB, pFlu float64) []disclosure.CandidateTuple {
		return []disclosure.CandidateTuple{
			{Table: "patients", Row: []sqlvalue.Value{pid, john, doc1, pneumonia}, Prob: pPneu},
			{Table: "patients", Row: []sqlvalue.Value{pid, john, doc1, tb}, Prob: pTB},
			{Table: "patients", Row: []sqlvalue.Value{pid, john, doc2, flu}, Prob: pFlu},
		}
	}
	exactlyOne := func(inst cq.Instance) bool { return len(inst["patients"]) == 1 }
	sens := cq.MustFromSQL(s, "SELECT PName, Disease FROM Patients")[0]
	answer := []sqlvalue.Value{john, pneumonia}

	u := disclosure.Prior{Name: "uniform", Fixed: fixed, Vars: candidates(0.5, 0.5, 0.5), Valid: exactlyOne}
	rU, err := disclosure.Shift(s, u, actual, p, nil, sens, answer)
	if err != nil {
		return rU, rU, err
	}
	n := disclosure.Prior{Name: "cough", Fixed: fixed, Vars: candidates(0.9, 0.3, 0.3), Valid: exactlyOne}
	rN, err := disclosure.Shift(s, n, actual, p, nil, sens, answer)
	return rU, rN, err
}

// RunE7 produces Figure 3: PQI/NQI checking time as the policy grows
// (more views) and as the schema widens (more columns per view).
func RunE7(iters int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Disclosure-checker scaling (§4.3: extending the algorithms to complex schemas)",
		Columns: []string{"series", "size", "us/check"},
	}
	f := apps.Employees()
	sensitive := "SELECT Name, Salary FROM Employees"

	for _, nviews := range []int{1, 2, 4, 8, 16} {
		p := SyntheticPolicy(f, nviews)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := disclosure.PQISQL(p, sensitive); err != nil {
				return nil, err
			}
			if _, err := disclosure.NQISQL(p, sensitive); err != nil {
				return nil, err
			}
		}
		us := float64(time.Since(start).Microseconds()) / float64(iters)
		t.Add("views", fmt.Sprintf("%d", nviews), fmt.Sprintf("%.1f", us))
	}

	// Schema width: hospital chase depth grows with FK fan-out; use
	// increasing join width in the sensitive query instead.
	hosp := apps.Hospital()
	hp := hosp.Policy()
	sens := []string{
		"SELECT PName FROM Patients",
		"SELECT PName, Disease FROM Patients",
		"SELECT p.PName, t.Disease FROM Patients p JOIN Treats t ON p.DocId = t.DocId",
		"SELECT p.PName, t.Disease, d.DName FROM Patients p JOIN Treats t ON p.DocId = t.DocId JOIN Doctors d ON p.DocId = d.DId",
	}
	for i, sql := range sens {
		start := time.Now()
		for k := 0; k < iters; k++ {
			if _, err := disclosure.PQISQL(hp, sql); err != nil {
				return nil, err
			}
			if _, err := disclosure.NQISQL(hp, sql); err != nil {
				return nil, err
			}
		}
		us := float64(time.Since(start).Microseconds()) / float64(iters)
		t.Add("query atoms", fmt.Sprintf("%d", i+1), fmt.Sprintf("%.1f", us))
	}
	t.Note("expected shape: roughly quadratic in views (pairwise joins dominate), modest growth with query width")
	return t, nil
}
