package diagnose

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/cq"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

func TestCounterexampleRespectsNegativeFacts(t *testing.T) {
	p := calendarPolicy(t)
	s := p.Schema
	// Blocked query whose freeze would need attendance(1,2), but the
	// trace says no such row exists: the freeze is trace-inconsistent
	// and the search must give up rather than fabricate a proof.
	q := cq.MustFromSQL(s, "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1 AND a.EId = 2")[0]
	neg := []cq.Fact{{
		Atom:    cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(1), cq.CInt(2)}},
		Negated: true,
	}}
	if _, ok := FindCounterexample(context.Background(), s, p, session(1), q, neg); ok {
		t.Fatal("counterexample must not contradict a negative trace fact")
	}
}

func TestCounterexampleNegativePatternWithVariables(t *testing.T) {
	p := calendarPolicy(t)
	s := p.Schema
	// Pattern with a variable: user 1 attends NO events at all.
	q := cq.MustFromSQL(s, "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1")[0]
	neg := []cq.Fact{{
		Atom:    cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(1), cq.V("x")}},
		Negated: true,
	}}
	if _, ok := FindCounterexample(context.Background(), s, p, session(1), q, neg); ok {
		t.Fatal("freeze contradicts the all-events-empty pattern; search must give up")
	}
}

func TestCounterexamplePositiveFactProtected(t *testing.T) {
	p := calendarPolicy(t)
	s := p.Schema
	// The trace pins attendance(1,2); Q2 on event 2 is compliant, so
	// no counterexample may exist, and in particular deleting the fact
	// row is forbidden.
	q := cq.MustFromSQL(s, "SELECT * FROM Events WHERE EId=2")[0]
	pos := []cq.Fact{{
		Atom: cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(1), cq.CInt(2)}},
	}}
	if ce, ok := FindCounterexample(context.Background(), s, p, session(1), q, pos); ok {
		t.Fatalf("compliant-with-history query must have no counterexample, got\n%s", ce)
	}
}

func TestCounterexamplePairMutation(t *testing.T) {
	// The adults case: Age>=18 sensitive query against a policy that
	// releases only the 60+ roster. The freeze lands inside VSeniors'
	// range, so only the pair-mutation pass finds the proof.
	f := apps.Employees()
	p := f.Policy()
	q := cq.MustFromSQL(f.Schema, "SELECT Name FROM Employees WHERE Age >= 18")[0]
	ce, ok := FindCounterexample(context.Background(), f.Schema, p, f.Session(1), q, nil)
	if !ok {
		t.Fatal("pair mutation should find a counterexample for the adults query")
	}
	// Both instances must agree on every view.
	views := p.Disjuncts(f.Session(1))
	for _, v := range views {
		if cq.AnswerKey(cq.Evaluate(v, ce.D1)) != cq.AnswerKey(cq.Evaluate(v, ce.D2)) {
			t.Fatalf("counterexample instances disagree on a view:\n%s", ce)
		}
	}
	// And disagree on the query.
	a1 := cq.Evaluate(q.BindParams(f.Session(1)), ce.D1)
	a2 := cq.Evaluate(q.BindParams(f.Session(1)), ce.D2)
	if cq.AnswerKey(a1) == cq.AnswerKey(a2) {
		t.Fatalf("counterexample instances agree on the query:\n%s", ce)
	}
}

func TestCounterexampleCellMutationHiddenColumn(t *testing.T) {
	// The hospital case: the Disease column is invisible to every
	// view, so a single cell mutation separates the instances.
	f := apps.Hospital()
	p := f.Policy()
	q := cq.MustFromSQL(f.Schema, "SELECT PName, Disease FROM Patients")[0]
	ce, ok := FindCounterexample(context.Background(), f.Schema, p, f.Session(1), q, nil)
	if !ok {
		t.Fatal("cell mutation should find a counterexample for the hidden disease column")
	}
	if len(ce.D1["patients"]) == 0 {
		t.Fatalf("counterexample missing patient row: %s", ce)
	}
}

func TestCounterexampleUnsatisfiableQuery(t *testing.T) {
	p := calendarPolicy(t)
	q := cq.MustFromSQL(p.Schema, "SELECT EId FROM Attendance WHERE UId = 1 AND UId = 2")[0]
	if _, ok := FindCounterexample(context.Background(), p.Schema, p, session(1), q, nil); ok {
		t.Fatal("unsatisfiable query cannot have a counterexample")
	}
}

func TestAbduceNoCheckForHopelessQuery(t *testing.T) {
	// No view covers another user's profile; abduction must not
	// fabricate a check (VMe pins UId to the session parameter, and no
	// database statement can change whose session this is).
	f := apps.Calendar()
	chk := checker.New(f.Policy())
	sel := sqlparser.MustParseSelect("SELECT Name FROM Users WHERE UId = 2")
	checks, err := AbduceAccessChecks(context.Background(), chk, f.Session(1), sel, sqlparser.NoArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		t.Errorf("unexpected check: %s", c)
	}
}

func TestNegPatternCoversVariablePattern(t *testing.T) {
	pattern := cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(1), cq.V("x")}}
	cand := cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(1), cq.CInt(7)}}
	if !negPatternCovers(pattern, cand, map[string]sqlvalue.Value{}) {
		t.Fatal("variable pattern should cover any value at that position")
	}
	other := cq.Atom{Table: "attendance", Args: []cq.Term{cq.CInt(2), cq.CInt(7)}}
	if negPatternCovers(pattern, other, map[string]sqlvalue.Value{}) {
		t.Fatal("constant mismatch must not be covered")
	}
}

// TestRowSetAgreesWithIdentical pins rowSet.has to a scan of the table
// under sqlvalue.Identical, cell by cell, over rows drawn from the
// values where classes meet: 2 and 2.0, 0 and -0, NaN (equal to every
// INTEGER, to no REAL), integers past float64's precision, NULL, TEXT
// and BOOLEAN.
func TestRowSetAgreesWithIdentical(t *testing.T) {
	pool := []sqlvalue.Value{
		sqlvalue.NewInt(2), sqlvalue.NewReal(2), sqlvalue.NewReal(2.5), sqlvalue.NewInt(0), sqlvalue.NewReal(math.Copysign(0, -1)),
		sqlvalue.NewReal(math.NaN()), sqlvalue.NewInt(1 << 60), sqlvalue.NewInt(1<<60 + 1), sqlvalue.NewNull(),
		sqlvalue.NewText("2"), sqlvalue.NewText(""), sqlvalue.NewBool(true),
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		inst := cq.Instance{}
		rows := newRowSet(inst)
		for i := 0; i < 12; i++ {
			table := []string{"a", "b"}[rng.Intn(2)]
			row := make([]sqlvalue.Value, 1+rng.Intn(2))
			for c := range row {
				row[c] = pool[rng.Intn(len(pool))]
			}
			want := slices.ContainsFunc(inst[table], func(r []sqlvalue.Value) bool {
				return slices.EqualFunc(r, row, sqlvalue.Identical)
			})
			if got := rows.has(table, row); got != want {
				t.Fatalf("round %d: has(%s %v) = %v over %v, a scan under Identical says %v", round, table, row, got, inst[table], want)
			}
			if !want {
				rows.add(table, row)
			}
		}
	}
}

// TestFactRowsFiledInLinearWork is the work bound of adding a trace's
// positive facts to a frozen instance: counted in rows compared, not in
// time, 2 000 distinct facts compare none and the same facts again one
// each, where a scan of the table per fact compared 4 004 000.
func TestFactRowsFiledInLinearWork(t *testing.T) {
	_, _, _, facts := slowSearchInput(t)
	inst := cq.Instance{"t": {{sqlvalue.NewInt(1), sqlvalue.NewInt(1)}}}
	rows := newRowSet(inst)
	for pass := 0; pass < 2; pass++ {
		for _, f := range facts {
			row := []sqlvalue.Value{f.Atom.Args[0].Const, f.Atom.Args[1].Const}
			if !rows.has("t", row) {
				rows.add("t", row)
			}
		}
	}
	if n := len(inst["t"]); n != len(facts)+1 {
		t.Fatalf("%d rows, want %d", n, len(facts)+1)
	}
	if rows.compared > len(facts) {
		t.Errorf("adding %d facts twice compared %d rows, want at most %d", len(facts), rows.compared, len(facts))
	}
}
