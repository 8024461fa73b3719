package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/sqlvalue"
)

func TestParseSimpleSelect(t *testing.T) {
	sel := MustParseSelect("SELECT EId FROM Attendance WHERE UId = ?MyUId")
	if len(sel.Items) != 1 || sel.Items[0].Star {
		t.Fatalf("items: %+v", sel.Items)
	}
	cr, ok := sel.Items[0].Expr.(*ColumnRef)
	if !ok || cr.Column != "EId" {
		t.Fatalf("item expr: %#v", sel.Items[0].Expr)
	}
	tr, ok := sel.From[0].(*TableRef)
	if !ok || tr.Name != "Attendance" {
		t.Fatalf("from: %#v", sel.From[0])
	}
	be, ok := sel.Where.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		t.Fatalf("where: %#v", sel.Where)
	}
	p, ok := be.Right.(*Param)
	if !ok || p.Name != "MyUId" {
		t.Fatalf("param: %#v", be.Right)
	}
}

func TestParseJoin(t *testing.T) {
	sel := MustParseSelect(
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId")
	j, ok := sel.From[0].(*JoinExpr)
	if !ok || j.Type != InnerJoin {
		t.Fatalf("from: %#v", sel.From[0])
	}
	l := j.Left.(*TableRef)
	r := j.Right.(*TableRef)
	if l.Name != "Events" || l.Alias != "e" || r.Name != "Attendance" || r.Alias != "a" {
		t.Fatalf("join refs: %+v %+v", l, r)
	}
	on := j.On.(*BinaryExpr)
	if on.Left.(*ColumnRef).Table != "e" || on.Right.(*ColumnRef).Table != "a" {
		t.Fatalf("on: %#v", j.On)
	}
}

func TestParseLeftJoin(t *testing.T) {
	sel := MustParseSelect("SELECT a.x FROM A a LEFT OUTER JOIN B b ON a.id = b.id")
	j := sel.From[0].(*JoinExpr)
	if j.Type != LeftJoin {
		t.Fatalf("want LEFT JOIN, got %v", j.Type)
	}
}

func TestParsePositionalParams(t *testing.T) {
	sel := MustParseSelect("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?")
	ps := Params(sel)
	if len(ps) != 2 || ps[0].Index != 0 || ps[1].Index != 1 {
		t.Fatalf("params: %+v", ps)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	sel := MustParseSelect("SELECT x FROM T WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top must be OR: %#v", sel.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right must be AND: %#v", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	sel := MustParseSelect("SELECT a + b * 2 FROM T")
	add := sel.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op: %v", add.Op)
	}
	if add.Right.(*BinaryExpr).Op != OpMul {
		t.Fatal("b*2 should bind tighter")
	}
}

func TestParseInList(t *testing.T) {
	sel := MustParseSelect("SELECT x FROM T WHERE a IN (1, 2, 3) AND b NOT IN (4)")
	and := sel.Where.(*BinaryExpr)
	in := and.Left.(*InExpr)
	if in.Not || len(in.List) != 3 {
		t.Fatalf("in: %+v", in)
	}
	nin := and.Right.(*InExpr)
	if !nin.Not || len(nin.List) != 1 {
		t.Fatalf("not in: %+v", nin)
	}
}

func TestParseInSubquery(t *testing.T) {
	sel := MustParseSelect("SELECT x FROM T WHERE a IN (SELECT id FROM U WHERE z = ?)")
	in := sel.Where.(*InExpr)
	if in.Subquery == nil {
		t.Fatal("expected subquery")
	}
	if len(Params(sel)) != 1 {
		t.Fatal("param inside subquery not collected")
	}
}

func TestParseExists(t *testing.T) {
	sel := MustParseSelect("SELECT x FROM T WHERE EXISTS (SELECT 1 FROM U WHERE U.id = T.id)")
	ex, ok := sel.Where.(*ExistsExpr)
	if !ok || ex.Not {
		t.Fatalf("where: %#v", sel.Where)
	}
	sel2 := MustParseSelect("SELECT x FROM T WHERE NOT EXISTS (SELECT 1 FROM U)")
	un, ok := sel2.Where.(*UnaryExpr)
	if !ok || un.Op != '!' {
		t.Fatalf("NOT EXISTS parses as NOT(EXISTS): %#v", sel2.Where)
	}
}

func TestParseBetweenIsNullLike(t *testing.T) {
	sel := MustParseSelect(
		"SELECT x FROM T WHERE a BETWEEN 1 AND 10 AND b IS NOT NULL AND c LIKE 'x%'")
	and1 := sel.Where.(*BinaryExpr)
	and2 := and1.Left.(*BinaryExpr)
	if _, ok := and2.Left.(*BetweenExpr); !ok {
		t.Fatalf("between: %#v", and2.Left)
	}
	isn := and2.Right.(*IsNullExpr)
	if !isn.Not {
		t.Fatal("IS NOT NULL flag")
	}
	like := and1.Right.(*BinaryExpr)
	if like.Op != OpLike {
		t.Fatalf("like: %#v", and1.Right)
	}
}

func TestParseAggregatesGroupHaving(t *testing.T) {
	sel := MustParseSelect(
		"SELECT d, COUNT(*) AS n, AVG(sal) FROM Emp GROUP BY d HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 5 OFFSET 1")
	if len(sel.GroupBy) != 1 || sel.Having == nil || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatalf("clauses: %+v", sel)
	}
	cnt := sel.Items[1].Expr.(*FuncExpr)
	if cnt.Name != "COUNT" || !cnt.Star || sel.Items[1].Alias != "n" {
		t.Fatalf("count: %+v", cnt)
	}
	if !IsAggregate(sel.Items[2].Expr) {
		t.Fatal("AVG should be an aggregate")
	}
	if IsAggregate(sel.Items[0].Expr) {
		t.Fatal("plain column is not an aggregate")
	}
}

func TestParseDistinct(t *testing.T) {
	sel := MustParseSelect("SELECT DISTINCT a FROM T")
	if !sel.Distinct {
		t.Fatal("distinct flag")
	}
	sel2 := MustParseSelect("SELECT COUNT(DISTINCT a) FROM T")
	if !sel2.Items[0].Expr.(*FuncExpr).Distinct {
		t.Fatal("count distinct flag")
	}
}

func TestParseStarForms(t *testing.T) {
	sel := MustParseSelect("SELECT *, t.* FROM T t")
	if !sel.Items[0].Star || sel.Items[0].Table != "" {
		t.Fatalf("bare star: %+v", sel.Items[0])
	}
	if !sel.Items[1].Star || sel.Items[1].Table != "t" {
		t.Fatalf("qualified star: %+v", sel.Items[1])
	}
}

func TestParseInsert(t *testing.T) {
	s := MustParse("INSERT INTO T (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := s.(*InsertStmt)
	if ins.Table != "T" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if lit.Value.Text() != "y" {
		t.Fatalf("row value: %v", lit.Value)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := MustParse("UPDATE T SET a = a + 1, b = 'z' WHERE id = ?").(*UpdateStmt)
	if len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("update: %+v", u)
	}
	d := MustParse("DELETE FROM T WHERE id = 3").(*DeleteStmt)
	if d.Table != "T" || d.Where == nil {
		t.Fatalf("delete: %+v", d)
	}
}

func TestParseCreateTable(t *testing.T) {
	s := MustParse(`CREATE TABLE Events (
		EId INTEGER PRIMARY KEY,
		Title TEXT NOT NULL,
		Notes TEXT,
		OwnerId INTEGER NOT NULL,
		UNIQUE (Title),
		FOREIGN KEY (OwnerId) REFERENCES Users (UId)
	)`)
	ct := s.(*CreateTableStmt)
	if ct.Name != "Events" || len(ct.Columns) != 4 {
		t.Fatalf("create: %+v", ct)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "EId" {
		t.Fatalf("pk: %v", ct.PrimaryKey)
	}
	if len(ct.UniqueKeys) != 1 || len(ct.ForeignKeys) != 1 {
		t.Fatalf("keys: %+v", ct)
	}
	if ct.Columns[0].Type != sqlvalue.Int || !ct.Columns[0].NotNull {
		t.Fatalf("pk column: %+v", ct.Columns[0])
	}
}

func TestParseComments(t *testing.T) {
	sel := MustParseSelect("SELECT a -- trailing\nFROM T /* block */ WHERE a = 1")
	if sel.Where == nil {
		t.Fatal("comments should be skipped")
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := MustParseSelect("SELECT 'it''s' FROM T")
	lit := sel.Items[0].Expr.(*Literal)
	if lit.Value.Text() != "it's" {
		t.Fatalf("escaped string: %q", lit.Value.Text())
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := MustParseSelect("SELECT -3, -2.5 FROM T")
	if sel.Items[0].Expr.(*Literal).Value.Int() != -3 {
		t.Fatal("negative int literal")
	}
	if sel.Items[1].Expr.(*Literal).Value.Real() != -2.5 {
		t.Fatal("negative float literal")
	}
	// An exponent makes a REAL, in the forms a REAL renders to.
	sel = MustParseSelect("SELECT 1e+06, 2.5E-7, -3e2, 1e FROM T")
	for i, want := range []float64{1e6, 2.5e-7, -300} {
		if v := sel.Items[i].Expr.(*Literal).Value; v.Type() != sqlvalue.Real || v.Real() != want {
			t.Errorf("item %d is %s; want the REAL %g", i, v, want)
		}
	}
	if it := sel.Items[3]; it.Alias != "e" {
		t.Errorf("1e without digits is %s AS %q; want 1 AS e", it.Expr.SQL(), it.Alias)
	}
	// A REAL -0 prints as what reads back as it.
	sel = MustParseSelect("SELECT -0.0 FROM T")
	if got := sel.SQL(); got != "SELECT -0.0 FROM T" || MustParseSelect(got).SQL() != got {
		t.Errorf("SELECT -0.0 prints as %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT a FROM",
		"SELECT a FROM T WHERE",
		"SELECT a FROM T WHERE a =",
		"INSERT INTO T VALUES",
		"UPDATE T",
		"DELETE T",
		"SELECT 'unterminated FROM T",
		"SELECT a FROM T extra stuff ~",
		"CREATE TABLE T (a BLOB9)",
		"SELECT a FROM T;;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
		"SELECT DISTINCT d, COUNT(*) AS n FROM Emp GROUP BY d HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 5",
		"SELECT x FROM T WHERE a IN (1, 2) OR b NOT IN (SELECT id FROM U)",
		"SELECT x FROM T WHERE NOT (a = 1 AND b = 2)",
		"SELECT x FROM T WHERE a BETWEEN 1 AND 10 AND b IS NOT NULL",
		"SELECT a - (b - c) FROM T",
		"INSERT INTO T (a, b) VALUES (1, 'x''y')",
		"UPDATE T SET a = a + 1 WHERE id = ?",
		"DELETE FROM T WHERE id = 3",
		"SELECT x FROM A LEFT JOIN B ON A.id = B.id",
		"SELECT x FROM T WHERE EXISTS (SELECT 1 FROM U WHERE U.id = T.id)",
	}
	for _, src := range srcs {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out1 := s1.SQL()
		s2, err := Parse(out1)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", out1, err)
		}
		out2 := s2.SQL()
		if out1 != out2 {
			t.Errorf("round trip unstable:\n  src: %s\n  1st: %s\n  2nd: %s", src, out1, out2)
		}
	}
}

func TestBind(t *testing.T) {
	s := MustParse("SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?")
	b, err := Bind(s, PositionalArgs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.SQL(); got != "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2" {
		t.Errorf("bound SQL: %s", got)
	}
	// Original unchanged.
	if strings.Contains(s.SQL(), "1 AND EId = 2") {
		t.Error("Bind mutated its input")
	}

	s2 := MustParse("SELECT EId FROM Attendance WHERE UId = ?MyUId")
	b2, err := Bind(s2, NamedArgs(map[string]any{"MyUId": 7}))
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.SQL(); got != "SELECT EId FROM Attendance WHERE UId = 7" {
		t.Errorf("named bound SQL: %s", got)
	}
}

func TestBindMissing(t *testing.T) {
	s := MustParse("SELECT 1 FROM T WHERE a = ? AND b = ?Name")
	if _, err := Bind(s, PositionalArgs(1)); err == nil {
		t.Error("missing named param should fail")
	}
	if _, err := Bind(s, NamedArgs(map[string]any{"Name": 2})); err == nil {
		t.Error("missing positional param should fail")
	}
}

func TestArgsWith(t *testing.T) {
	a := NamedArgs(map[string]any{"A": 1})
	b := a.With("B", 2)
	if _, ok := a.Named["B"]; ok {
		t.Error("With must not mutate the receiver")
	}
	if b.Named["A"].Int() != 1 || b.Named["B"].Int() != 2 {
		t.Errorf("With result: %+v", b.Named)
	}
}

func TestBaseTables(t *testing.T) {
	sel := MustParseSelect("SELECT * FROM A a JOIN B ON a.x = B.x, C")
	tabs := BaseTables(sel.From)
	if len(tabs) != 3 || tabs[0].Name != "A" || tabs[1].Name != "B" || tabs[2].Name != "C" {
		t.Fatalf("base tables: %+v", tabs)
	}
}

func TestCloneIndependence(t *testing.T) {
	sel := MustParseSelect("SELECT a FROM T WHERE a = 1")
	cp := CloneSelect(sel)
	cp.Where.(*BinaryExpr).Right.(*Literal).Value = sqlvalue.NewInt(99)
	if sel.Where.(*BinaryExpr).Right.(*Literal).Value.Int() != 1 {
		t.Error("clone shares literal nodes with original")
	}
}

func TestSelectItemAliasWithoutAS(t *testing.T) {
	sel := MustParseSelect("SELECT a n FROM T")
	if sel.Items[0].Alias != "n" {
		t.Fatalf("bare alias: %+v", sel.Items[0])
	}
}

func TestParseUnion(t *testing.T) {
	sel := MustParseSelect(
		"SELECT a FROM T WHERE a = 1 UNION ALL SELECT a FROM U UNION SELECT b FROM V ORDER BY 1 LIMIT 5")
	if len(sel.Union) != 2 {
		t.Fatalf("union arms: %d", len(sel.Union))
	}
	if !sel.Union[0].All || sel.Union[1].All {
		t.Fatalf("ALL flags: %+v", sel.Union)
	}
	// Trailing ORDER BY / LIMIT hoist onto the head select.
	if len(sel.OrderBy) != 1 || sel.Limit == nil {
		t.Fatalf("hoisted clauses: %+v", sel)
	}
	if len(sel.Union[1].Select.OrderBy) != 0 || sel.Union[1].Select.Limit != nil {
		t.Fatal("clauses should have been hoisted off the last arm")
	}
	// Round trip.
	again := MustParseSelect(sel.SQL())
	if again.SQL() != sel.SQL() {
		t.Fatalf("union round trip:\n%s\n%s", sel.SQL(), again.SQL())
	}
}

func TestParseUnionParams(t *testing.T) {
	sel := MustParseSelect("SELECT a FROM T WHERE a = ? UNION SELECT a FROM T WHERE a = ?X")
	ps := Params(sel)
	if len(ps) != 2 || ps[1].Name != "X" {
		t.Fatalf("union params: %+v", ps)
	}
}
