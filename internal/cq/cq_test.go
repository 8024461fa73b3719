package cq

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

func calendarSchema(t testing.TB) *schema.Schema {
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
		PK("UId", "EId").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func employeeSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Employees").
		NotNullCol("Id", sqlvalue.Int).
		NotNullCol("Name", sqlvalue.Text).
		NotNullCol("Age", sqlvalue.Int).
		PK("Id").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func one(t *testing.T, u UCQ) *Query {
	t.Helper()
	if len(u) != 1 {
		t.Fatalf("want 1 disjunct, got %d:\n%s", len(u), u)
	}
	return u[0]
}

// TestTermSize pins the compact layout: the kind, the one name a
// variable or a parameter has, and a constant's 32-byte Value. Every
// fact, plan template and memoized generalization is made of Terms.
func TestTermSize(t *testing.T) {
	if n := unsafe.Sizeof(Term{}); n != 56 {
		t.Errorf("a Term is %d bytes; want 56", n)
	}
}

func TestTranslateSimple(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"))
	if len(q.Atoms) != 1 || q.Atoms[0].Table != "attendance" {
		t.Fatalf("atoms: %v", q.Atoms)
	}
	// UId position substituted by the parameter.
	if !q.Atoms[0].Args[0].Equal(P("MyUId")) {
		t.Fatalf("param substitution: %v", q.Atoms[0])
	}
	if len(q.Head) != 1 || !q.Head[0].IsVar() {
		t.Fatalf("head: %v", q.Head)
	}
	if len(q.Comps) != 0 {
		t.Fatalf("eqs should be folded: %v", q.Comps)
	}
}

func TestTranslateJoin(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s,
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId"))
	if len(q.Atoms) != 2 {
		t.Fatalf("atoms: %v", q.Atoms)
	}
	// Join variable shared between the two atoms after Eq folding.
	eid1 := q.Atoms[0].Args[0]
	eid2 := q.Atoms[1].Args[1]
	if !eid1.Equal(eid2) {
		t.Fatalf("join variables not unified: %v vs %v", eid1, eid2)
	}
	// Head covers Events.* then Attendance.* = 3 + 2 columns.
	if len(q.Head) != 5 {
		t.Fatalf("head width: %d", len(q.Head))
	}
}

func TestTranslateConstants(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"))
	if !q.Atoms[0].Args[0].Equal(CInt(1)) || !q.Atoms[0].Args[1].Equal(CInt(2)) {
		t.Fatalf("constants not substituted: %v", q.Atoms[0])
	}
	if !q.Head[0].Equal(CInt(1)) {
		t.Fatalf("const head: %v", q.Head)
	}
}

func TestTranslateComparisons(t *testing.T) {
	s := employeeSchema(t)
	q := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 60"))
	if len(q.Comps) != 1 {
		t.Fatalf("comps: %v", q.Comps)
	}
	c := q.Comps[0]
	if c.Op != Ge && c.Op != Le {
		t.Fatalf("comp op: %v", c)
	}
}

func TestTranslateOrSplits(t *testing.T) {
	s := employeeSchema(t)
	u := MustFromSQL(s, "SELECT Name FROM Employees WHERE Age = 1 OR Age = 2")
	if len(u) != 2 {
		t.Fatalf("OR should yield 2 disjuncts, got %d", len(u))
	}
}

func TestTranslateInList(t *testing.T) {
	s := employeeSchema(t)
	u := MustFromSQL(s, "SELECT Name FROM Employees WHERE Id IN (1, 2, 3)")
	if len(u) != 3 {
		t.Fatalf("IN list should yield 3 disjuncts, got %d", len(u))
	}
}

func TestTranslateInSubquery(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s,
		"SELECT Title FROM Events WHERE EId IN (SELECT EId FROM Attendance WHERE UId = ?MyUId)"))
	if len(q.Atoms) != 2 {
		t.Fatalf("subquery atoms folded: %v", q.Atoms)
	}
}

func TestTranslateCorrelatedExists(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s,
		"SELECT Title FROM Events e WHERE EXISTS (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = 5)"))
	if len(q.Atoms) != 2 {
		t.Fatalf("atoms: %v", q.Atoms)
	}
	if !q.Atoms[1].Args[0].Equal(CInt(5)) {
		t.Fatalf("correlated const: %v", q.Atoms[1])
	}
	if !q.Atoms[0].Args[0].Equal(q.Atoms[1].Args[1]) {
		t.Fatalf("correlation variable not shared: %v", q.Atoms)
	}
}

func TestTranslateAggregateApprox(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT COUNT(*) FROM Attendance WHERE UId = 3"))
	if !q.AggApprox {
		t.Fatal("aggregate should set AggApprox")
	}
	if len(q.Head) != 2 {
		t.Fatalf("agg head should expose all columns: %v", q.Head)
	}
}

func TestTranslateRejectsNonCQ(t *testing.T) {
	s := calendarSchema(t)
	bad := []string{
		"SELECT Title FROM Events WHERE Notes IS NULL",
		"SELECT Title FROM Events WHERE Title LIKE 'a%'",
		"SELECT Title FROM Events e LEFT JOIN Attendance a ON e.EId = a.EId",
		"SELECT Title FROM Events WHERE NOT EXISTS (SELECT 1 FROM Attendance)",
		"SELECT Title FROM Events WHERE Title = UPPER('x')",
	}
	for _, src := range bad {
		_, err := FromSQL(s, src)
		if err == nil {
			t.Errorf("%q should be outside the fragment", src)
			continue
		}
		if !errors.Is(err, ErrNotCQ) && !strings.Contains(err.Error(), "cq:") {
			t.Errorf("%q: unexpected error class %v", src, err)
		}
	}
}

func TestContainmentBasic(t *testing.T) {
	s := employeeSchema(t)
	q60 := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 60"))
	q18 := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 18"))
	if !Contains(q60, q18) {
		t.Error("Age>=60 should be contained in Age>=18")
	}
	if Contains(q18, q60) {
		t.Error("Age>=18 must not be contained in Age>=60")
	}
}

func TestContainmentReflexiveAndJoin(t *testing.T) {
	s := calendarSchema(t)
	v2 := one(t, MustFromSQL(s,
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId"))
	if !Contains(v2, v2) {
		t.Error("containment must be reflexive")
	}
	// Specializing the join with a constant is contained in the view.
	qSpec := one(t, MustFromSQL(s,
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId AND e.EId = 2"))
	if !Contains(qSpec, v2) {
		t.Error("specialized query should be contained in the view")
	}
	if Contains(v2, qSpec) {
		t.Error("view must not be contained in the specialized query")
	}
}

func TestContainmentHeadMismatch(t *testing.T) {
	s := employeeSchema(t)
	qName := one(t, MustFromSQL(s, "SELECT Name FROM Employees"))
	qAge := one(t, MustFromSQL(s, "SELECT Age FROM Employees"))
	if Contains(qName, qAge) || Contains(qAge, qName) {
		t.Error("different head columns must not be mutually contained")
	}
}

func TestContainmentWithParams(t *testing.T) {
	s := calendarSchema(t)
	v1 := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"))
	// Same param: contained.
	q := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = 7"))
	if !Contains(q, v1) {
		t.Error("narrowed query should be contained under the same parameter")
	}
	// Different param: not contained.
	q2 := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?OtherUId"))
	if Contains(q2, v1) {
		t.Error("different parameters must not match")
	}
}

func TestContainmentTransitivityProperty(t *testing.T) {
	s := employeeSchema(t)
	qs := []*Query{
		one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 65")),
		one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 60")),
		one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 18")),
		one(t, MustFromSQL(s, "SELECT Name FROM Employees")),
	}
	for i := range qs {
		for j := range qs {
			for k := range qs {
				if Contains(qs[i], qs[j]) && Contains(qs[j], qs[k]) && !Contains(qs[i], qs[k]) {
					t.Fatalf("transitivity violated at %d,%d,%d", i, j, k)
				}
			}
		}
	}
}

func TestUCQContainment(t *testing.T) {
	s := employeeSchema(t)
	u12 := MustFromSQL(s, "SELECT Name FROM Employees WHERE Age = 1 OR Age = 2")
	u123 := MustFromSQL(s, "SELECT Name FROM Employees WHERE Age IN (1, 2, 3)")
	if !ContainsUCQ(u12, u123) {
		t.Error("1|2 should be contained in 1|2|3")
	}
	if ContainsUCQ(u123, u12) {
		t.Error("1|2|3 must not be contained in 1|2")
	}
}

func TestMinimize(t *testing.T) {
	s := calendarSchema(t)
	// Redundant self-join: attendance twice with same pattern.
	q := one(t, MustFromSQL(s,
		"SELECT a1.EId FROM Attendance a1, Attendance a2 WHERE a1.UId = ?U AND a2.UId = ?U AND a1.EId = a2.EId"))
	if len(q.Atoms) != 2 {
		t.Fatalf("setup: %v", q.Atoms)
	}
	m := Minimize(q)
	if len(m.Atoms) != 1 {
		t.Fatalf("minimize should drop the redundant atom: %v", m.Atoms)
	}
	if !Equivalent(q, m) {
		t.Error("minimized query must stay equivalent")
	}
}

func TestMinimizeKeepsNecessaryAtoms(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?U"))
	m := Minimize(q)
	if len(m.Atoms) != 2 {
		t.Fatalf("join atoms are all necessary: %v", m.Atoms)
	}
}

func TestConstraintsSolver(t *testing.T) {
	cs := NewConstraints()
	x, y, z := V("x"), V("y"), V("z")
	cs.Add(Comparison{Op: Lt, Left: x, Right: y})
	cs.Add(Comparison{Op: Le, Left: y, Right: z})
	if !cs.Consistent() {
		t.Fatal("x<y<=z is consistent")
	}
	if !cs.Implies(Comparison{Op: Lt, Left: x, Right: z}) {
		t.Error("x<z should be implied")
	}
	if !cs.Implies(Comparison{Op: Ne, Left: x, Right: z}) {
		t.Error("x<>z should be implied")
	}
	if cs.Implies(Comparison{Op: Lt, Left: z, Right: x}) {
		t.Error("z<x must not be implied")
	}
	cs.Add(Comparison{Op: Lt, Left: z, Right: x})
	if cs.Consistent() {
		t.Error("cycle with strict edge must be inconsistent")
	}
}

func TestConstraintsConstants(t *testing.T) {
	cs := NewConstraints()
	x := V("x")
	cs.Add(Comparison{Op: Ge, Left: x, Right: CInt(60)})
	if !cs.Implies(Comparison{Op: Ge, Left: x, Right: CInt(18)}) {
		t.Error("x>=60 implies x>=18")
	}
	if !cs.Implies(Comparison{Op: Gt, Left: x, Right: CInt(18)}) {
		t.Error("x>=60 implies x>18")
	}
	if cs.Implies(Comparison{Op: Ge, Left: x, Right: CInt(61)}) {
		t.Error("x>=60 does not imply x>=61")
	}
	if !cs.Implies(Comparison{Op: Ne, Left: x, Right: CInt(5)}) {
		t.Error("x>=60 implies x<>5")
	}
}

func TestConstraintsEqualityConflict(t *testing.T) {
	cs := NewConstraints()
	cs.AddEq(V("x"), CInt(1))
	cs.AddEq(V("x"), CInt(2))
	if cs.Consistent() {
		t.Error("x=1 and x=2 must be inconsistent")
	}
}

func TestConstraintsNeConflict(t *testing.T) {
	cs := NewConstraints()
	cs.Add(Comparison{Op: Ne, Left: V("x"), Right: V("y")})
	cs.AddEq(V("x"), V("y"))
	if cs.Consistent() {
		t.Error("x<>y with x=y must be inconsistent")
	}
}

func TestConstraintsParams(t *testing.T) {
	cs := NewConstraints()
	cs.AddEq(V("x"), P("MyUId"))
	if !cs.Implies(Comparison{Op: Eq, Left: V("x"), Right: P("MyUId")}) {
		t.Error("x = ?MyUId should be implied")
	}
	if cs.Implies(Comparison{Op: Eq, Left: V("x"), Right: P("Other")}) {
		t.Error("distinct params must not be conflated")
	}
}

func TestCanonicalKeyStability(t *testing.T) {
	s := calendarSchema(t)
	a := one(t, MustFromSQL(s, "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?U"))
	b := one(t, MustFromSQL(s, "SELECT ev.Title FROM Events ev JOIN Attendance att ON ev.EId = att.EId WHERE att.UId = ?U"))
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("alpha-equivalent queries should share a key:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
	c := one(t, MustFromSQL(s, "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?V"))
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("different params must produce different keys")
	}
}

func TestBindParams(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"))
	b := q.BindParams(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(7)})
	if !b.Atoms[0].Args[0].Equal(CInt(7)) {
		t.Fatalf("bound: %v", b.Atoms[0])
	}
	if len(q.Params()) != 1 || len(b.Params()) != 0 {
		t.Fatal("params accounting wrong")
	}
}

func TestFreeze(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 42"))
	inst, assign, err := Freeze(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst["events"]) != 1 || len(inst["attendance"]) != 1 {
		t.Fatalf("instance: %v", inst)
	}
	// Join column must agree across tables.
	if !sqlvalue.Identical(inst["events"][0][0], inst["attendance"][0][1]) {
		t.Fatalf("join values differ: %v", inst)
	}
	// UId pinned to 42.
	if inst["attendance"][0][0].Int() != 42 {
		t.Fatalf("pinned const: %v", inst["attendance"][0])
	}
	if len(assign) == 0 {
		t.Fatal("assignment missing")
	}
}

func TestFreezeOrderConstraints(t *testing.T) {
	s := employeeSchema(t)
	q := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age >= 60 AND Age < 70"))
	inst, _, err := Freeze(s, q)
	if err != nil {
		t.Fatal(err)
	}
	age := inst["employees"][0][2].Int()
	if age < 60 || age >= 70 {
		t.Fatalf("frozen age %d violates constraints", age)
	}
}

func TestFreezeUnsatisfiable(t *testing.T) {
	s := employeeSchema(t)
	q := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Age > 70 AND Age < 60"))
	if _, _, err := Freeze(s, q); err == nil {
		t.Fatal("unsatisfiable query must not freeze")
	}
}

func TestHomomorphismSoundnessProperty(t *testing.T) {
	// If Contains(sub, super), then evaluating both on sub's frozen
	// instance must put sub's head row into super's answers. We check
	// the core of that: freezing sub yields an instance where super
	// has a matching embedding.
	s := calendarSchema(t)
	sub := one(t, MustFromSQL(s,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 3 AND e.EId = 9"))
	super := one(t, MustFromSQL(s,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 3"))
	if !Contains(sub, super) {
		t.Fatal("setup: sub should be contained")
	}
	inst, _, err := Freeze(s, sub)
	if err != nil {
		t.Fatal(err)
	}
	// super's atoms must embed into the instance.
	ev := inst["events"][0]
	at := inst["attendance"][0]
	if !sqlvalue.Identical(ev[0], at[1]) || at[0].Int() != 3 {
		t.Fatalf("embedding broken: %v %v", ev, at)
	}
}

func TestQueryStringAndVars(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"))
	q.Name = "V1"
	str := q.String()
	if !strings.Contains(str, "V1(") || !strings.Contains(str, "attendance(") {
		t.Errorf("rendering: %s", str)
	}
	if len(q.Vars()) != 1 {
		t.Errorf("vars: %v", q.Vars())
	}
}

func TestRenameVarsDisjoint(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"))
	r := q.RenameVars("z_")
	for _, v := range r.Vars() {
		if !strings.HasPrefix(v, "z_") {
			t.Errorf("rename missed %q", v)
		}
	}
	// Original untouched.
	for _, v := range q.Vars() {
		if strings.HasPrefix(v, "z_") {
			t.Error("rename mutated original")
		}
	}
}

func TestTranslateUnion(t *testing.T) {
	s := calendarSchema(t)
	u := MustFromSQL(s,
		"SELECT EId FROM Attendance WHERE UId = 1 UNION SELECT EId FROM Attendance WHERE UId = 2")
	if len(u) != 2 {
		t.Fatalf("union should yield 2 disjuncts: %s", u)
	}
	if _, err := FromSQL(s,
		"SELECT EId FROM Attendance UNION SELECT UId, EId FROM Attendance"); err == nil {
		t.Fatal("mismatched union arms must error")
	}
}

// A contradictory equality must survive translation as a comparison
// between the two representatives: dropped, `Age = 1 AND Age = 2` would
// be decided as `Age = 1` (and a view `Id = ?MyUId AND Id = 5` read as
// `Id = 5` for every principal).
func TestTranslateKeepsContradictoryEquality(t *testing.T) {
	s := employeeSchema(t)
	q := one(t, MustFromSQL(s, "SELECT Id FROM Employees WHERE Age = 1 AND Age = 2"))
	cs := NewConstraints()
	cs.AddAll(q.Comps)
	if len(q.Comps) != 1 || cs.Consistent() {
		t.Fatalf("contradiction lost: %s", q)
	}
	// Agreeing constants leave nothing behind, whatever their spelling.
	if q := one(t, MustFromSQL(s, "SELECT Id FROM Employees WHERE Age = 1 AND Age = 1.0")); len(q.Comps) != 0 {
		t.Fatalf("redundant equality kept: %s", q)
	}
	// A parameter and a constant stay two terms.
	v := one(t, MustFromSQL(s, "SELECT Name FROM Employees WHERE Id = ?MyUId AND Id = 5"))
	if got := v.String(); !strings.Contains(got, "?MyUId") || !strings.Contains(got, "5") || len(v.Comps) != 1 {
		t.Fatalf("parameter or constant lost: %s", got)
	}
}
