package trace

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

func calSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Events").
		NotNullCol("EId", sqlvalue.Int).
		NotNullCol("Title", sqlvalue.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func entry(sql string, rows ...[]sqlvalue.Value) Entry {
	stmt := sqlparser.MustParseSelect(sql)
	return Entry{SQL: sql, Stmt: stmt, Args: sqlparser.NoArgs, Rows: rows}
}

func iv(vals ...int64) []sqlvalue.Value {
	out := make([]sqlvalue.Value, len(vals))
	for i, v := range vals {
		out[i] = sqlvalue.NewInt(v)
	}
	return out
}

func TestPositiveFactFromGroundQuery(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	facts := Facts(s, tr)
	if len(facts) != 1 {
		t.Fatalf("facts: %v", facts)
	}
	if facts[0].Negated || facts[0].Atom.Table != "attendance" {
		t.Fatalf("fact: %v", facts[0])
	}
	if facts[0].Atom.Args[0].Const.Int() != 1 || facts[0].Atom.Args[1].Const.Int() != 2 {
		t.Fatalf("fact args: %v", facts[0])
	}
}

func TestPositiveFactsFromHeadVariables(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT EId FROM Attendance WHERE UId=1", iv(2), iv(5)))
	facts := Facts(s, tr)
	if len(facts) != 2 {
		t.Fatalf("facts: %v", facts)
	}
	for i, want := range []int64{2, 5} {
		if facts[i].Atom.Args[1].Const.Int() != want {
			t.Errorf("fact %d: %v", i, facts[i])
		}
	}
}

func TestNegativeFactFromEmptyResult(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=9"))
	facts := Facts(s, tr)
	if len(facts) != 1 || !facts[0].Negated {
		t.Fatalf("facts: %v", facts)
	}
}

func TestNoFactsFromJoinRowsWithHiddenColumns(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	// Join projecting only Title: the Attendance atom's EId is not
	// recoverable from the result.
	tr.Append(entry(
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		[]sqlvalue.Value{sqlvalue.NewText("retro")}))
	facts := Facts(s, tr)
	if len(facts) != 0 {
		t.Fatalf("no atoms should be fully determined: %v", facts)
	}
}

func TestJoinFactsWithFullProjection(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry(
		"SELECT e.EId, e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		[]sqlvalue.Value{sqlvalue.NewInt(2), sqlvalue.NewText("retro")}))
	facts := Facts(s, tr)
	// Both atoms become ground: events(2,'retro') and attendance(1,2).
	if len(facts) != 2 {
		t.Fatalf("facts: %v", facts)
	}
}

func TestNoFactsFromAggregates(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT COUNT(*) FROM Attendance WHERE UId=1", iv(3)))
	if facts := Facts(s, tr); len(facts) != 0 {
		t.Fatalf("aggregates yield no facts: %v", facts)
	}
}

func TestNoNegativeFactsForJoins(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1"))
	if facts := Facts(s, tr); len(facts) != 0 {
		t.Fatalf("multi-atom emptiness doesn't localize: %v", facts)
	}
}

func TestFactsDeduplicated(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	if facts := Facts(s, tr); len(facts) != 1 {
		t.Fatalf("duplicate facts should merge: %v", facts)
	}
}

func TestCloneAndString(t *testing.T) {
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	cp := tr.Clone()
	cp.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=3"))
	if tr.Len() != 1 || cp.Len() != 2 {
		t.Fatal("clone shares entries slice")
	}
	if !strings.Contains(tr.String(), "1 row(s)") {
		t.Errorf("rendering: %s", tr)
	}
}

func TestFactsSkipOutOfFragmentQueries(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT Title FROM Events WHERE Title LIKE 'a%'",
		[]sqlvalue.Value{sqlvalue.NewText("abc")}))
	if facts := Facts(s, tr); len(facts) != 0 {
		t.Fatalf("out-of-fragment queries yield no facts: %v", facts)
	}
}

// An empty answer to a query whose equalities contradict each other says
// nothing about the table: no negative fact.
func TestNoNegativeFactFromUnsatisfiableQuery(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT EId FROM Attendance WHERE UId = 1 AND UId = 2"))
	tr.Append(Entry{
		Stmt: sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ? AND UId = ?"),
		Args: sqlparser.PositionalArgs(1, 2),
	})
	if facts := Facts(s, tr); len(facts) != 0 {
		t.Fatalf("facts from an unsatisfiable query: %v", facts)
	}
	// The same shape with agreeing values is the plain empty probe.
	tr.Append(Entry{
		Stmt: sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ? AND UId = ?"),
		Args: sqlparser.PositionalArgs(1, 1),
	})
	if facts := Facts(s, tr); len(facts) != 1 || !facts[0].Negated {
		t.Fatalf("facts: %v", facts)
	}
}
