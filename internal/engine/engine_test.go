package engine

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

func calendarDB(t testing.TB) *DB {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Users").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("Name", sqlvalue.Text).
		PK("UId").Done().
		Table("Events").
		OpaqueCol("EId", sqlvalue.Int).
		NotNullCol("Title", sqlvalue.Text).
		Col("Notes", sqlvalue.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").
		FK([]string{"UId"}, "Users", []string{"UId"}).
		FK([]string{"EId"}, "Events", []string{"EId"}).Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := New(s)
	db.MustExec("INSERT INTO Users (UId, Name) VALUES (1, 'alice'), (2, 'bob'), (3, 'carol')")
	db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (1, 'standup', NULL), (2, 'retro', 'bring snacks'), (3, 'offsite', NULL)")
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (1, 1), (1, 2), (2, 1), (3, 3)")
	return db
}

func mustQuery(t testing.TB, db *DB, sql string, args ...any) *Result {
	t.Helper()
	res, err := db.QuerySQL(sql, sqlparser.PositionalArgs(args...))
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSelectBasics(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT Name FROM Users WHERE UId = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "bob" {
		t.Fatalf("result: %v", res)
	}
	if res.Columns[0] != "Name" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT * FROM Events WHERE EId = 2")
	if len(res.Columns) != 3 || len(res.Rows) != 1 {
		t.Fatalf("result: %v", res)
	}
	if res.Rows[0][1].Text() != "retro" {
		t.Fatalf("row: %v", res.Rows[0])
	}
}

func TestPositionalParams(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 1, 2)
	if len(res.Rows) != 1 {
		t.Fatalf("attendance lookup: %v", res)
	}
	res = mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 2, 2)
	if len(res.Rows) != 0 {
		t.Fatalf("absent attendance: %v", res)
	}
}

func TestInnerJoin(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1 ORDER BY e.Title")
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "retro" || res.Rows[1][0].Text() != "standup" {
		t.Fatalf("join result: %v", res)
	}
}

func TestLeftJoin(t *testing.T) {
	db := calendarDB(t)
	// Event 3 has attendee 3 only; left join users to attendance.
	res := mustQuery(t, db,
		"SELECT u.Name, a.EId FROM Users u LEFT JOIN Attendance a ON u.UId = a.UId AND a.EId = 1 ORDER BY u.Name")
	if len(res.Rows) != 3 {
		t.Fatalf("left join rows: %v", res)
	}
	// carol has no EId=1 attendance -> NULL.
	if !res.Rows[2][1].IsNull() {
		t.Fatalf("carol should have NULL EId: %v", res.Rows[2])
	}
}

func TestThreeWayJoinAndQualifiedStar(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db,
		"SELECT u.* FROM Users u JOIN Attendance a ON u.UId = a.UId JOIN Events e ON a.EId = e.EId WHERE e.Title = 'standup' ORDER BY u.UId")
	if len(res.Rows) != 2 || res.Rows[0][1].Text() != "alice" || res.Rows[1][1].Text() != "bob" {
		t.Fatalf("3-way join: %v", res)
	}
}

func TestCrossProductFrom(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT u.UId, e.EId FROM Users u, Events e")
	if len(res.Rows) != 9 {
		t.Fatalf("cross product: %d rows", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*) FROM Attendance")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("count: %v", res)
	}
	res = mustQuery(t, db,
		"SELECT UId, COUNT(*) AS n FROM Attendance GROUP BY UId ORDER BY n DESC, UId")
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 2 {
		t.Fatalf("group by: %v", res)
	}
	res = mustQuery(t, db,
		"SELECT UId FROM Attendance GROUP BY UId HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("having: %v", res)
	}
}

func TestAggregateFunctions(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT MIN(UId), MAX(UId), SUM(UId), AVG(UId), COUNT(DISTINCT UId) FROM Attendance")
	r := res.Rows[0]
	if r[0].Int() != 1 || r[1].Int() != 3 || r[2].Int() != 7 {
		t.Fatalf("min/max/sum: %v", r)
	}
	if r[3].Real() != 1.75 {
		t.Fatalf("avg: %v", r[3])
	}
	if r[4].Int() != 3 {
		t.Fatalf("count distinct: %v", r[4])
	}
}

func TestEmptyAggregate(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(UId) FROM Attendance WHERE UId = 99")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregate: %v", res.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT DISTINCT UId FROM Attendance ORDER BY UId")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct: %v", res)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT UId FROM Users ORDER BY UId DESC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 1 {
		t.Fatalf("order/limit/offset: %v", res)
	}
	// ORDER BY positional.
	res = mustQuery(t, db, "SELECT UId, Name FROM Users ORDER BY 2")
	if res.Rows[0][1].Text() != "alice" {
		t.Fatalf("positional order: %v", res)
	}
}

func TestInListAndSubquery(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT Name FROM Users WHERE UId IN (1, 3) ORDER BY Name")
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "alice" {
		t.Fatalf("in list: %v", res)
	}
	res = mustQuery(t, db,
		"SELECT Title FROM Events WHERE EId IN (SELECT EId FROM Attendance WHERE UId = 1) ORDER BY Title")
	if len(res.Rows) != 2 || res.Rows[1][0].Text() != "standup" {
		t.Fatalf("in subquery: %v", res)
	}
	res = mustQuery(t, db, "SELECT Name FROM Users WHERE UId NOT IN (1, 2)")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "carol" {
		t.Fatalf("not in: %v", res)
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db,
		"SELECT Title FROM Events e WHERE EXISTS (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = 2)")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "standup" {
		t.Fatalf("correlated exists: %v", res)
	}
	res = mustQuery(t, db,
		"SELECT Title FROM Events e WHERE NOT EXISTS (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)")
	if len(res.Rows) != 0 {
		t.Fatalf("all events have attendees: %v", res)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT (SELECT COUNT(*) FROM Attendance) FROM Users WHERE UId = 1")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("scalar subquery: %v", res)
	}
}

func TestNullHandling(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT Title FROM Events WHERE Notes IS NULL ORDER BY Title")
	if len(res.Rows) != 2 {
		t.Fatalf("is null: %v", res)
	}
	res = mustQuery(t, db, "SELECT Title FROM Events WHERE Notes = NULL")
	if len(res.Rows) != 0 {
		t.Fatalf("= NULL must match nothing: %v", res)
	}
	res = mustQuery(t, db, "SELECT Title FROM Events WHERE Notes IS NOT NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "retro" {
		t.Fatalf("is not null: %v", res)
	}
}

func TestLikeBetweenArith(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT Title FROM Events WHERE Title LIKE 's%'")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "standup" {
		t.Fatalf("like: %v", res)
	}
	res = mustQuery(t, db, "SELECT UId FROM Users WHERE UId BETWEEN 2 AND 3 ORDER BY UId")
	if len(res.Rows) != 2 {
		t.Fatalf("between: %v", res)
	}
	res = mustQuery(t, db, "SELECT UId * 10 + 5 FROM Users WHERE UId = 2")
	if res.Rows[0][0].Int() != 25 {
		t.Fatalf("arith: %v", res)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT UPPER(Name), LENGTH(Name), COALESCE(NULL, Name) FROM Users WHERE UId = 1")
	r := res.Rows[0]
	if r[0].Text() != "ALICE" || r[1].Int() != 5 || r[2].Text() != "alice" {
		t.Fatalf("functions: %v", r)
	}
}

func TestInsertConstraints(t *testing.T) {
	db := calendarDB(t)
	// PK violation.
	if _, _, err := db.Exec("INSERT INTO Users (UId, Name) VALUES (1, 'dup')", sqlparser.NoArgs); err == nil {
		t.Error("PK violation not caught")
	}
	// NOT NULL violation.
	if _, _, err := db.Exec("INSERT INTO Users (UId, Name) VALUES (9, NULL)", sqlparser.NoArgs); err == nil {
		t.Error("NOT NULL violation not caught")
	}
	// FK violation.
	if _, _, err := db.Exec("INSERT INTO Attendance (UId, EId) VALUES (1, 99)", sqlparser.NoArgs); err == nil {
		t.Error("FK violation not caught")
	}
	// Valid insert.
	if _, n, err := db.Exec("INSERT INTO Attendance (UId, EId) VALUES (2, 2)", sqlparser.NoArgs); err != nil || n != 1 {
		t.Errorf("valid insert: n=%d err=%v", n, err)
	}
}

func TestUniqueConstraint(t *testing.T) {
	s, err := schema.NewBuilder().
		Table("T").NotNullCol("id", sqlvalue.Int).NotNullCol("email", sqlvalue.Text).
		PK("id").Unique("email").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	db := New(s)
	db.MustExec("INSERT INTO T (id, email) VALUES (1, 'a@x')")
	if _, _, err := db.Exec("INSERT INTO T (id, email) VALUES (2, 'a@x')", sqlparser.NoArgs); err == nil {
		t.Error("unique violation not caught")
	}
}

func TestUpdate(t *testing.T) {
	db := calendarDB(t)
	_, n, err := db.Exec("UPDATE Events SET Title = 'sync' WHERE EId = 1", sqlparser.NoArgs)
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	res := mustQuery(t, db, "SELECT Title FROM Events WHERE EId = 1")
	if res.Rows[0][0].Text() != "sync" {
		t.Fatalf("after update: %v", res)
	}
	// Update violating NOT NULL.
	if _, _, err := db.Exec("UPDATE Users SET Name = NULL WHERE UId = 1", sqlparser.NoArgs); err == nil {
		t.Error("update NOT NULL violation not caught")
	}
	// Update changing PK to a duplicate.
	if _, _, err := db.Exec("UPDATE Users SET UId = 2 WHERE UId = 1", sqlparser.NoArgs); err == nil {
		t.Error("update PK violation not caught")
	}
}

func TestDelete(t *testing.T) {
	db := calendarDB(t)
	_, n, err := db.Exec("DELETE FROM Attendance WHERE UId = 1", sqlparser.NoArgs)
	if err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if db.RowCount("Attendance") != 2 {
		t.Fatalf("row count after delete: %d", db.RowCount("Attendance"))
	}
	// Index still consistent: point lookup works.
	res := mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId = 3 AND EId = 3")
	if len(res.Rows) != 1 {
		t.Fatalf("post-delete lookup: %v", res)
	}
}

func TestCloneIndependence(t *testing.T) {
	db := calendarDB(t)
	cp := db.Clone()
	cp.MustExec("DELETE FROM Attendance WHERE UId = 1")
	if db.RowCount("Attendance") != 4 {
		t.Error("Clone shares storage with original")
	}
	if cp.RowCount("Attendance") != 2 {
		t.Error("Clone delete failed")
	}
}

func TestSetCell(t *testing.T) {
	db := calendarDB(t)
	if err := db.SetCell("Events", 1, "Notes", "changed"); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT Notes FROM Events WHERE EId = 2")
	if res.Rows[0][0].Text() != "changed" {
		t.Fatalf("set cell: %v", res)
	}
	if err := db.SetCell("Events", 99, "Notes", "x"); err == nil {
		t.Error("out-of-range row should fail")
	}
	if err := db.SetCell("Events", 0, "Nope", "x"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := calendarDB(t)
	res := mustQuery(t, db, "SELECT 1 + 2, 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].Text() != "x" {
		t.Fatalf("select w/o from: %v", res)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := calendarDB(t)
	_, err := db.QuerySQL("SELECT UId FROM Users u, Attendance a", sqlparser.NoArgs)
	if err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestUnknownColumnAndTable(t *testing.T) {
	db := calendarDB(t)
	if _, err := db.QuerySQL("SELECT nope FROM Users", sqlparser.NoArgs); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := db.QuerySQL("SELECT 1 FROM Nope", sqlparser.NoArgs); err == nil {
		t.Error("unknown table should error")
	}
}

func TestUnboundParam(t *testing.T) {
	db := calendarDB(t)
	if _, err := db.QuerySQL("SELECT 1 FROM Users WHERE UId = ?", sqlparser.NoArgs); err == nil {
		t.Error("unbound param should error")
	}
}

func TestExample21Trace(t *testing.T) {
	// The paper's Example 2.1 queries run verbatim.
	db := calendarDB(t)
	q1 := mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	if len(q1.Rows) != 1 {
		t.Fatalf("Q1 should return one row: %v", q1)
	}
	q2 := mustQuery(t, db, "SELECT * FROM Events WHERE EId=2")
	if len(q2.Rows) != 1 || q2.Rows[0][1].Text() != "retro" {
		t.Fatalf("Q2: %v", q2)
	}
}

func TestPointLookupFastPath(t *testing.T) {
	db := calendarDB(t)
	// Full-PK equality on a composite key.
	res := mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
	if len(res.Rows) != 1 {
		t.Fatalf("point lookup hit: %v", res)
	}
	res = mustQuery(t, db, "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 99")
	if len(res.Rows) != 0 {
		t.Fatalf("point lookup miss: %v", res)
	}
	// Extra conjuncts still apply after the probe.
	res = mustQuery(t, db, "SELECT Title FROM Events WHERE EId = 2 AND Title = 'nope'")
	if len(res.Rows) != 0 {
		t.Fatalf("residual predicate ignored: %v", res)
	}
	// Literal-on-the-left form.
	res = mustQuery(t, db, "SELECT Title FROM Events WHERE 2 = EId")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "retro" {
		t.Fatalf("reversed equality: %v", res)
	}
	// Disjunctions must fall back to the scan (semantics preserved).
	res = mustQuery(t, db, "SELECT Title FROM Events WHERE EId = 2 OR EId = 3 ORDER BY EId")
	if len(res.Rows) != 2 {
		t.Fatalf("OR fallback: %v", res)
	}
}
