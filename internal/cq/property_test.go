package cq

import (
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

// randInstance builds a random small instance over the calendar
// schema with values drawn from a tiny domain (collisions on purpose).
func randInstance(rng *rand.Rand, s *schema.Schema) Instance {
	inst := Instance{}
	dom := func() sqlvalue.Value { return sqlvalue.NewInt(int64(rng.Intn(4))) }
	text := func() sqlvalue.Value {
		return sqlvalue.NewText([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	for _, t := range s.Tables() {
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			row := make([]sqlvalue.Value, len(t.Columns))
			for c, col := range t.Columns {
				if col.Type == sqlvalue.Text {
					row[c] = text()
				} else {
					row[c] = dom()
				}
			}
			inst[lowerName(t.Name)] = append(inst[lowerName(t.Name)], row)
		}
	}
	return inst
}

func lowerName(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 32
		}
	}
	return string(b)
}

// queryPool is a set of CQ-fragment queries over the calendar schema
// with varied shapes (selections, joins, comparisons, params bound).
func queryPool(t *testing.T, s *schema.Schema) []*Query {
	t.Helper()
	srcs := []string{
		"SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT EId FROM Attendance",
		"SELECT UId, EId FROM Attendance",
		"SELECT Title FROM Events",
		"SELECT Title FROM Events WHERE EId = 2",
		"SELECT EId, Title FROM Events WHERE EId >= 1",
		"SELECT EId, Title FROM Events WHERE EId >= 2",
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId",
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		"SELECT e.EId FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 2",
		"SELECT a1.EId FROM Attendance a1, Attendance a2 WHERE a1.EId = a2.EId AND a1.UId = 1",
		"SELECT Name FROM Users WHERE UId = 1",
		"SELECT u.Name FROM Users u JOIN Attendance a ON u.UId = a.UId",
	}
	var out []*Query
	for _, src := range srcs {
		out = append(out, one(t, MustFromSQL(s, src)))
	}
	return out
}

// TestContainmentSoundOnRandomInstances: whenever Contains(a, b)
// reports true, a's answers must be a subset of b's on every instance.
// This cross-validates the homomorphism procedure against the direct
// evaluator.
func TestContainmentSoundOnRandomInstances(t *testing.T) {
	s := calendarSchema(t)
	pool := queryPool(t, s)
	rng := rand.New(rand.NewSource(42))
	contained := 0
	for i, a := range pool {
		for j, b := range pool {
			if i == j || !Contains(a, b) {
				continue
			}
			contained++
			for trial := 0; trial < 40; trial++ {
				inst := randInstance(rng, s)
				ra := Evaluate(a, inst)
				rb := Evaluate(b, inst)
				for _, row := range ra {
					if !ContainsRow(rb, row) {
						t.Fatalf("UNSOUND containment:\n a=%s\n b=%s\n instance=%v\n row=%v",
							a, b, inst, row)
					}
				}
			}
		}
	}
	if contained < 3 {
		t.Fatalf("pool exercised too few containments: %d", contained)
	}
}

// TestInfoContainsSoundOnRandomInstances: if InfoContains(sub, super),
// then sub's answer must be a *function* of super's answer — two
// instances agreeing on super must agree on sub.
func TestInfoContainsSoundOnRandomInstances(t *testing.T) {
	s := calendarSchema(t)
	pool := queryPool(t, s)
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i, sub := range pool {
		for j, super := range pool {
			if i == j || !InfoContains(s, sub, super) {
				continue
			}
			checked++
			// Sample instance pairs; whenever super agrees, sub must.
			var insts []Instance
			for k := 0; k < 24; k++ {
				insts = append(insts, randInstance(rng, s))
			}
			for x := 0; x < len(insts); x++ {
				for y := x + 1; y < len(insts); y++ {
					if AnswerKey(Evaluate(super, insts[x])) != AnswerKey(Evaluate(super, insts[y])) {
						continue
					}
					if AnswerKey(Evaluate(sub, insts[x])) != AnswerKey(Evaluate(sub, insts[y])) {
						t.Fatalf("UNSOUND InfoContains:\n sub=%s\n super=%s\n D1=%v\n D2=%v",
							sub, super, insts[x], insts[y])
					}
				}
			}
		}
	}
	if checked < 2 {
		t.Fatalf("pool exercised too few info-containments: %d", checked)
	}
}

// TestMinimizePreservesAnswers: Minimize must not change the query's
// answers on any instance.
func TestMinimizePreservesAnswers(t *testing.T) {
	s := calendarSchema(t)
	pool := queryPool(t, s)
	rng := rand.New(rand.NewSource(99))
	for _, q := range pool {
		m := Minimize(q)
		for trial := 0; trial < 30; trial++ {
			inst := randInstance(rng, s)
			if AnswerKey(Evaluate(q, inst)) != AnswerKey(Evaluate(m, inst)) {
				t.Fatalf("Minimize changed semantics:\n q=%s\n m=%s\n inst=%v", q, m, inst)
			}
		}
	}
}

// TestFreezeYieldsAnswer: the canonical instance of a satisfiable
// query must make the query return its frozen head row.
func TestFreezeYieldsAnswer(t *testing.T) {
	s := calendarSchema(t)
	for _, q := range queryPool(t, s) {
		inst, _, err := Freeze(s, q)
		if err != nil {
			t.Fatalf("freeze %s: %v", q, err)
		}
		if len(Evaluate(q, inst)) == 0 {
			t.Fatalf("query %s returns nothing on its own freeze %v", q, inst)
		}
	}
}

// TestChaseFKsPreservesAnswersOnConsistentInstances: on instances that
// satisfy the FKs, chasing must not change the query's answers.
func TestChaseFKsPreservesAnswersOnConsistentInstances(t *testing.T) {
	s := calendarSchema(t)
	rng := rand.New(rand.NewSource(5))
	pool := queryPool(t, s)
	for _, q := range pool {
		c := ChaseFKs(s, q)
		for trial := 0; trial < 30; trial++ {
			inst := randInstance(rng, s)
			closeFKs(s, inst)
			if AnswerKey(Evaluate(q, inst)) != AnswerKey(Evaluate(c, inst)) {
				t.Fatalf("chase changed semantics on FK-consistent instance:\n q=%s\n c=%s\n inst=%v",
					q, c, inst)
			}
		}
	}
}

// closeFKs repairs an instance to satisfy foreign keys by inserting
// missing referenced rows.
func closeFKs(s *schema.Schema, inst Instance) {
	for pass := 0; pass < 3; pass++ {
		for _, t := range s.Tables() {
			rows := inst[lowerName(t.Name)]
			for _, fk := range t.ForeignKeys {
				ref, _ := s.Table(fk.RefTable)
				for _, row := range rows {
					vals := make([]sqlvalue.Value, len(fk.Columns))
					for i, c := range fk.Columns {
						ci, _ := t.ColumnIndex(c)
						vals[i] = row[ci]
					}
					if hasRefRow(ref, inst, fk, vals) {
						continue
					}
					nr := make([]sqlvalue.Value, len(ref.Columns))
					for i, col := range ref.Columns {
						if col.Type == sqlvalue.Text {
							nr[i] = sqlvalue.NewText("fkfix")
						} else {
							nr[i] = sqlvalue.NewInt(0)
						}
					}
					for i, rc := range fk.RefColumns {
						ri, _ := ref.ColumnIndex(rc)
						nr[ri] = vals[i]
					}
					inst[lowerName(ref.Name)] = append(inst[lowerName(ref.Name)], nr)
				}
			}
		}
	}
}

func hasRefRow(ref *schema.Table, inst Instance, fk schema.ForeignKey, vals []sqlvalue.Value) bool {
	for _, r := range inst[lowerName(ref.Name)] {
		ok := true
		for i, rc := range fk.RefColumns {
			ri, _ := ref.ColumnIndex(rc)
			if !sqlvalue.Identical(r[ri], vals[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestEvaluateDeduplicates: set semantics — no duplicate head rows.
func TestEvaluateDeduplicates(t *testing.T) {
	s := calendarSchema(t)
	q := one(t, MustFromSQL(s, "SELECT UId FROM Attendance"))
	inst := Instance{"attendance": {
		{sqlvalue.NewInt(1), sqlvalue.NewInt(1)},
		{sqlvalue.NewInt(1), sqlvalue.NewInt(2)},
	}}
	rows := Evaluate(q, inst)
	if len(rows) != 1 {
		t.Fatalf("set semantics violated: %v", rows)
	}
}

// TestAnswerKeyBooleanQuery: a query with an empty head answers one
// empty row when it holds and none when it does not, and the two
// answers key apart — else a boolean view would look unchanged by a
// deletion that falsifies it.
func TestAnswerKeyBooleanQuery(t *testing.T) {
	q := &Query{Atoms: []Atom{{Table: "r", Args: []Term{CInt(1)}}}}
	holds := Evaluate(q, Instance{"r": {{sqlvalue.NewInt(1)}}})
	fails := Evaluate(q, Instance{"r": {{sqlvalue.NewInt(2)}}})
	if len(holds) != 1 || len(fails) != 0 {
		t.Fatalf("answers %v and %v; want one empty row and none", holds, fails)
	}
	if AnswerKey(holds) == AnswerKey(fails) {
		t.Errorf("a boolean query that holds and one that does not share the answer key %q", AnswerKey(holds))
	}
}
