package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// keylessMirror copies db's rows, in storage order, into a database
// whose tables declare no key: every read there is a full scan, a
// reference that shares no code with the key indexes.
func keylessMirror(t testing.TB, db *DB) *DB {
	t.Helper()
	s := schema.New()
	for _, tb := range db.schema.Tables() {
		if err := s.AddTable(&schema.Table{Name: tb.Name, Columns: tb.Columns}); err != nil {
			t.Fatal(err)
		}
	}
	m := New(s)
	for _, tb := range db.schema.Tables() {
		for _, r := range db.Snapshot(tb.Name) {
			vals := make([]any, len(r))
			for i, v := range r {
				vals[i] = v
			}
			if err := m.InsertRow(tb.Name, vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// scanTables are the tables the parity generator reads: two
// single-column keys, Attendance's composite (UId, EId) and Scores'
// (a, b), whose REAL b holds NaN. eq names the columns of scanDB's
// secondary indexes, each with the prefix of the TEXT it holds ("" for
// an INTEGER column).
var scanTables = []struct {
	name, proj string
	cols       []string // key leading column first
	eq         [][2]string
}{
	{"Users", "UId, Name", []string{"UId", "Name"}, [][2]string{{"Name", "u"}}},
	{"Events", "*", []string{"EId", "Title", "Notes"}, [][2]string{{"Title", "e"}, {"Notes", "n"}}},
	{"Attendance", "EId, UId", []string{"UId", "EId"}, [][2]string{{"EId", ""}}},
	{"Scores", "a, b", []string{"a", "b"}, nil},
}

// scanDB is calendarDB with secondary indexes on non-key columns —
// Users(Name), Events(Title, Notes), Attendance(EId) — and the table
// Scores, whose composite key ends in a REAL column.
func scanDB(t testing.TB) *DB {
	db := seedCalendar(t, calendarSchema().
		Table("Scores").NotNullCol("a", sqlvalue.Int).NotNullCol("b", sqlvalue.Real).PK("a", "b").Done())
	for _, ix := range []struct {
		table string
		cols  []string
	}{{"Users", []string{"Name"}}, {"Events", []string{"Title", "Notes"}}, {"Attendance", []string{"EId"}}} {
		if err := db.DeclareIndex(ix.table, ix.cols); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// scanLiteral draws a literal of every type a key column meets: Int,
// integral and fractional Real, Text holding a number, and NULL.
func scanLiteral(rng *rand.Rand, n int) string {
	k := rng.Intn(n+8) - 2
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%d.0", k)
	case 1:
		return fmt.Sprintf("%d.5", k)
	case 2:
		return fmt.Sprintf("'%d'", k)
	case 3:
		return "NULL"
	}
	return fmt.Sprint(k)
}

// scanQuery draws a single-table read: conjuncts mostly on the leading
// key column, every comparison operator, the literal on either side,
// and shapes for both the bound scan and the generic evaluator.
func scanQuery(rng *rand.Rand, n int) string {
	tb := scanTables[rng.Intn(len(scanTables))]
	from, qual := tb.name, ""
	if rng.Intn(4) == 0 {
		from, qual = tb.name+" x", "x."
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	var conds []string
	for c := rng.Intn(3) + 1; c > 0; c-- {
		col := tb.cols[0]
		if rng.Intn(4) == 0 {
			col = tb.cols[rng.Intn(len(tb.cols))]
		}
		op, lit := ops[rng.Intn(len(ops))], scanLiteral(rng, n)
		if len(tb.eq) > 0 && rng.Intn(3) == 0 { // an equality on an indexed column
			eq := tb.eq[rng.Intn(len(tb.eq))]
			col, op = eq[0], "="
			if eq[1] != "" && rng.Intn(4) > 0 {
				lit = fmt.Sprintf("'%s%d'", eq[1], rng.Intn(6))
			}
		}
		if rng.Intn(3) == 0 {
			conds = append(conds, lit+" "+op+" "+qual+col)
		} else {
			conds = append(conds, qual+col+" "+op+" "+lit)
		}
	}
	where := strings.Join(conds, " AND ")
	switch rng.Intn(6) {
	case 0: // an OR conjunct sends the read to the generic evaluator
		where += fmt.Sprintf(" AND (%s%s = %d OR %s%s > %d)", qual, tb.cols[0], rng.Intn(n), qual, tb.cols[0], rng.Intn(n))
	case 1:
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s ORDER BY 1 DESC", tb.proj, from, where)
	case 2:
		return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", from, where)
	case 3: // a correlated subquery: outer references pin nothing
		return fmt.Sprintf("SELECT e.EId FROM Events e WHERE EXISTS (SELECT 1 FROM Attendance a WHERE e.EId = %d AND a.UId = %d)",
			rng.Intn(n), rng.Intn(n))
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", tb.proj, from, where)
}

// scanMutation draws one random write statement, or "" for a SetCell.
// Its WHERE clauses take every row-finder shape: the leading key
// column, the literal on either side, <>, a literal of another type, a
// composite-key prefix, and an OR conjunct for the generic path. Many
// key-changing and constraint-breaking writes fail — on a duplicate
// key, NOT NULL or a foreign key, some on a later row than the first
// they change — and must then change nothing.
func scanMutation(rng *rand.Rand, n int) string {
	k, j, lit := rng.Intn(n+4), rng.Intn(n+4), scanLiteral(rng, n)
	writes := []string{
		fmt.Sprintf("DELETE FROM Attendance WHERE UId = %d", k),
		fmt.Sprintf("DELETE FROM Attendance WHERE %d = UId AND EId = %d", k, j),
		fmt.Sprintf("DELETE FROM Events WHERE EId < %d AND EId > %d", k, k-4),
		fmt.Sprintf("DELETE FROM Events WHERE EId >= %s AND (Notes IS NULL OR EId = %d)", lit, j),
		fmt.Sprintf("UPDATE Users SET UId = %d.0 WHERE UId = %d", rng.Intn(2*n), k),
		fmt.Sprintf("UPDATE Users SET UId = %d WHERE UId >= %d", rng.Intn(2*n), k),
		fmt.Sprintf("UPDATE Users SET Name = 'w%d' WHERE UId <> %d AND UId < %s", j, k, lit),
		fmt.Sprintf("UPDATE Users SET Name = 'o%d' WHERE UId = %d OR UId = %d", j, k, j),
		fmt.Sprintf("UPDATE Events SET EId = EId + %d WHERE EId > %d", rng.Intn(5), k),
		fmt.Sprintf("UPDATE Events SET Notes = 'n%d' WHERE %s > EId", j, lit),
		fmt.Sprintf("UPDATE Events SET Title = Notes WHERE EId >= %d", k),
		fmt.Sprintf("UPDATE Attendance SET EId = %d WHERE UId = %d", rng.Intn(n), k),
		fmt.Sprintf("UPDATE Attendance SET EId = EId + 1 WHERE UId = %d AND EId >= %d", k, j),
		fmt.Sprintf("UPDATE Attendance SET UId = UId + %d WHERE EId = %s", rng.Intn(3), lit),
		fmt.Sprintf("INSERT INTO Users (UId, Name) VALUES (%d, 'i'), (%d, 'j')", rng.Intn(2*n), rng.Intn(2*n)),
		fmt.Sprintf("DELETE FROM Scores WHERE a = %d AND b = %s", k%4, lit),
		fmt.Sprintf("UPDATE Scores SET b = b + 1 WHERE %s = b AND a = %d", lit, k%4),
		"",
	}
	return writes[rng.Intn(len(writes))]
}

// checkWriteParity applies one scanMutation write to db as served and
// to gen through the reference row finder (genericExec). Affected
// counts, error text and every table must agree; a failed write must
// leave db as it was; db's indexes must hold.
func checkWriteParity(t *testing.T, at string, rng *rand.Rand, db, gen *DB, n int) {
	t.Helper()
	q, before := scanMutation(rng, n), snapshotAll(db)
	var got, want string
	if q == "" {
		i, v := rng.Intn(db.RowCount("Users")), rng.Intn(2*n)
		q = fmt.Sprintf("SetCell(Users, %d, UId, %d)", i, v)
		got, want = fmt.Sprint(db.SetCell("Users", i, "UId", v)), fmt.Sprint(gen.SetCell("Users", i, "UId", v))
	} else {
		_, an, aerr := db.Exec(q, sqlparser.NoArgs)
		bn, berr := genericExec(t, gen, q)
		got, want = fmt.Sprint(an, " ", aerr), fmt.Sprint(bn, " ", berr)
		if aerr != nil && snapshotAll(db) != before {
			t.Fatalf("%s: %s failed (%v) but changed the tables:\n%swant\n%s", at, q, aerr, snapshotAll(db), before)
		}
	}
	if got != want {
		t.Fatalf("%s: %s: served %s, reference finder %s", at, q, got, want)
	}
	if a, b := snapshotAll(db), snapshotAll(gen); a != b {
		t.Fatalf("%s: %s: served\n%sreference finder\n%s", at, q, a, b)
	}
	checkIndexes(t, db)
}

// checkScanParity runs one generated case: a scanDB filled out of key
// order, then written step by step, served and through the reference
// row finder side by side (checkWriteParity), sometimes cloned between
// steps; after every step each generated read must render
// byte-identically served, through execGeneric, and through execGeneric
// over a keyless copy of the rows.
func checkScanParity(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db := scanDB(t)
	n := 8 + rng.Intn(24)
	for _, i := range rng.Perm(n) {
		db.MustExec("INSERT INTO Users (UId, Name) VALUES (?, ?)", i+4, fmt.Sprintf("u%d", i%6))
		db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (?, ?, ?)", i+4, fmt.Sprintf("e%d", rng.Intn(5)),
			[]any{nil, fmt.Sprintf("n%d", rng.Intn(3))}[rng.Intn(2)])
		_ = db.InsertRow("Scores", i%4, []float64{math.NaN(), float64(i % 5), float64(i%5) + 0.5}[rng.Intn(3)]) // duplicates rejected
	}
	for i := 0; i < 2*n; i++ {
		_, _, _ = db.Exec("INSERT INTO Attendance (UId, EId) VALUES (?, ?)",
			sqlparser.PositionalArgs(rng.Intn(n+3)+1, rng.Intn(n+3)+1)) // duplicates rejected; fine
	}
	gen := db.Clone()
	for step := 0; step < 6; step++ {
		ref := keylessMirror(t, db)
		for i := 0; i < 20; i++ {
			q := scanQuery(rng, n)
			served, generic, scan := servedQuery(db, q), genericQuery(t, db, q), genericQuery(t, ref, q)
			if streamed := streamedQuery(db, q); served != scan || generic != scan || streamed != scan {
				t.Fatalf("seed %d step %d: %q\nserved:\n%s\nstreamed:\n%s\ngeneric:\n%s\nfull scan:\n%s", seed, step, q, served, streamed, generic, scan)
			}
		}
		for w := 0; w < 4; w++ {
			checkWriteParity(t, fmt.Sprintf("seed %d step %d", seed, step), rng, db, gen, n)
		}
		if rng.Intn(6) == 0 {
			db, gen = db.Clone(), gen.Clone()
			checkIndexes(t, db)
		}
	}
}

func FuzzScanParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkScanParity)
}

// TestCorrelatedSubqueryPinsNothing pins that an outer reference
// inside a subquery never narrows the inner table: e.EId = 2 names the
// outer Events row, not Attendance.EId.
func TestCorrelatedSubqueryPinsNothing(t *testing.T) {
	db := calendarDB(t)
	for q, want := range map[string]string{
		"SELECT e.EId FROM Events e WHERE EXISTS (SELECT 1 FROM Attendance a WHERE e.EId = 2 AND a.UId = 3)":     "EId\n2\n",
		"SELECT e.EId FROM Events e WHERE NOT EXISTS (SELECT 1 FROM Attendance a WHERE e.EId = 2 AND a.UId = 3)": "EId\n1\n3\n",
	} {
		if got := mustQuery(t, db, q).String(); got != want {
			t.Errorf("%s:\ngot\n%swant\n%s", q, got, want)
		}
	}
}

// keyTable is the invariant test's schema: a nullable INTEGER primary
// key and two nullable UNIQUE keys, TEXT and REAL.
func keyTable(t testing.TB) *DB {
	s, err := schema.NewBuilder().
		Table("T").Col("id", sqlvalue.Int).Col("email", sqlvalue.Text).Col("score", sqlvalue.Real).
		PK("id").Unique("email").Unique("score").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	return New(s)
}

// keyValue draws a value for column c of keyTable: every class the
// column coerces from, NULL, and for score NaN.
func keyValue(rng *rand.Rand, c int) any {
	k := rng.Intn(8)
	switch {
	case rng.Intn(6) == 0:
		return nil
	case c == 0 && rng.Intn(3) == 0:
		return float64(k) // 2.0 is the key 2
	case c == 1:
		return fmt.Sprintf("m%d", k)
	case c == 2 && rng.Intn(8) == 0:
		return math.NaN()
	case c == 2 && rng.Intn(2) == 0:
		return float64(k) + 0.5
	}
	return k
}

// keyOracle predicts keyTable's duplicate-key errors the way the hash
// indexes the ordered ones replaced decided them: two key tuples
// collide iff every column's Value.Key() matches, checked primary key
// first, then each UNIQUE key.
func keyOracle(rows []Row, skip int, r Row) string {
	for c, what := range []string{"primary key", "unique", "unique"} {
		for i, o := range rows {
			if i != skip && o[c].Key() == r[c].Key() {
				return "engine: " + what + " violation on T"
			}
		}
	}
	return ""
}

// coerce stores v the way keyTable's column c does.
func coerce(t *testing.T, c int, v any) sqlvalue.Value {
	cv, err := sqlvalue.CoerceTo(sqlvalue.MustFromAny(v), []sqlvalue.Type{sqlvalue.Int, sqlvalue.Text, sqlvalue.Real}[c])
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// checkKeyInvariants asserts that every index of T equals a fresh
// stable sort of its rows, holds each row's own key tuple, and that
// every full-key probe agrees with a linear scan under Value.Key().
func checkKeyInvariants(t *testing.T, db *DB, rng *rand.Rand) {
	t.Helper()
	td := db.tables["t"]
	for _, ix := range td.keys {
		want := make([]int32, len(td.rows))
		for i := range want {
			want[i] = int32(i)
		}
		c := ix.cols[0]
		slices.SortStableFunc(want, func(a, b int32) int {
			x, y := td.rows[a][c], td.rows[b][c]
			if x.Type() == sqlvalue.Real && y.Type() == sqlvalue.Real {
				return cmp.Compare(x.Real(), y.Real()) // NaN first
			}
			if sqlvalue.Less(x, y) {
				return -1
			}
			if sqlvalue.Less(y, x) {
				return 1
			}
			return 0
		})
		if !slices.Equal(ix.pos, want) {
			t.Fatalf("%s index %v, want %v over %v", ix.what, ix.pos, want, td.rows)
		}
		if len(ix.keys) != len(ix.pos) {
			t.Fatalf("%s index holds %d key tuples for %d rows", ix.what, len(ix.keys), len(ix.pos))
		}
		for i, p := range ix.pos {
			if k := ix.keys[i]; k.Key() != td.rows[p][c].Key() || k.Type() != td.rows[p][c].Type() {
				t.Fatalf("%s entry %d holds key %v, its row %v", ix.what, i, k, td.rows[p])
			}
		}
		probes := []sqlvalue.Value{sqlvalue.NewNull(), sqlvalue.NewText("2"), sqlvalue.NewReal(2.5)}
		for _, r := range td.rows {
			probes = append(probes, r[c])
		}
		for i := 0; i < 4; i++ {
			probes = append(probes, coerce(t, c, keyValue(rng, c)))
		}
		for _, p := range probes {
			if c == 2 && p.Type() != sqlvalue.Real && !p.IsNull() {
				continue // a REAL key is probed with REALs, as CoerceTo leaves them
			}
			at, found := ix.find([]sqlvalue.Value{p})
			linear := slices.IndexFunc(td.rows, func(r Row) bool { return r[c].Key() == p.Key() })
			if found != (linear >= 0) || found && int(ix.pos[at]) != linear {
				t.Fatalf("%s probe %v: index (%d, %v), linear scan %d over %v", ix.what, p, at, found, linear, td.rows)
			}
		}
	}
}

// TestKeyIndexInvariants drives keyTable through random inserts,
// updates, deletes, SetCells and Clones, against a model of its rows
// whose duplicate-key decisions are keyOracle's; after every step the
// rows must equal the model's and checkKeyInvariants must hold, and a
// database cloned away must keep its rows and indexes.
func TestKeyIndexInvariants(t *testing.T) {
	cols := []string{"id", "email", "score"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := keyTable(t)
		var model []Row
		type frozen struct {
			db   *DB
			rows string
		}
		var clones []frozen
		for step := 0; step < 60; step++ {
			var err error
			want := ""
			switch op := rng.Intn(10); {
			case op < 5:
				vals := []any{keyValue(rng, 0), keyValue(rng, 1), keyValue(rng, 2)}
				r := Row{coerce(t, 0, vals[0]), coerce(t, 1, vals[1]), coerce(t, 2, vals[2])}
				if want = keyOracle(model, -1, r); want == "" {
					model = append(model, r)
				}
				err = db.InsertRow("T", vals...)
			case op < 8 && len(model) > 0:
				i, c := rng.Intn(len(model)), rng.Intn(3)
				v, old := keyValue(rng, c), model[i]
				r := slices.Clone(old)
				r[c] = coerce(t, c, v)
				if want = keyOracle(model, i, r); want == "" {
					model[i] = r
				}
				if op == 5 || old[0].IsNull() { // WHERE id = NULL would match nothing
					err = db.SetCell("T", i, cols[c], v)
				} else {
					_, _, err = db.Exec("UPDATE T SET "+cols[c]+" = ? WHERE id = ?", sqlparser.PositionalArgs(v, old[0].Any()))
				}
			case op == 8:
				lo := rng.Intn(8)
				model = slices.DeleteFunc(model, func(r Row) bool {
					c1, ok1 := sqlvalue.Compare(r[0], sqlvalue.NewInt(int64(lo)))
					c2, ok2 := sqlvalue.Compare(r[0], sqlvalue.NewInt(int64(lo+3)))
					return ok1 && ok2 && c1 >= 0 && c2 < 0
				})
				_, _, err = db.Exec("DELETE FROM T WHERE id >= ? AND id < ?", sqlparser.PositionalArgs(lo, lo+3))
			default:
				clones = append(clones, frozen{db, (&Result{Rows: db.Snapshot("T")}).String()})
				db = db.Clone()
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != want {
				t.Fatalf("seed %d step %d: error %q, want %q", seed, step, got, want)
			}
			if rows, mrows := (&Result{Rows: db.Snapshot("T")}).String(), (&Result{Rows: model}).String(); rows != mrows {
				t.Fatalf("seed %d step %d: rows\n%swant\n%s", seed, step, rows, mrows)
			}
			checkKeyInvariants(t, db, rng)
		}
		for _, c := range clones {
			if rows := (&Result{Rows: c.db.Snapshot("T")}).String(); rows != c.rows {
				t.Fatalf("seed %d: a clone's writes reached its source:\n%swant\n%s", seed, rows, c.rows)
			}
			checkKeyInvariants(t, c.db, rng)
		}
	}
}

// TestKeyViolations pins the duplicate-key errors at their edges: a
// duplicate primary key, 2 against 2.0, NULL against NULL, a UNIQUE
// column — on insert, on UPDATE and on SetCell.
func TestKeyViolations(t *testing.T) {
	db := keyTable(t)
	for _, vals := range [][]any{{1, "a", 1.5}, {2, "b", 2}, {nil, nil, nil}} {
		if err := db.InsertRow("T", vals...); err != nil {
			t.Fatal(err)
		}
	}
	pk, uniq := "engine: primary key violation on T", "engine: unique violation on T"
	for _, c := range []struct {
		vals []any
		want string
	}{
		{[]any{1, "z", 9}, pk},
		{[]any{2.0, "z", 9}, pk},
		{[]any{nil, "z", 9}, pk},
		{[]any{5, "a", 9}, uniq},
		{[]any{5, nil, 9}, uniq},
		{[]any{5, "z", 2}, uniq},
		{[]any{5, "z", nil}, uniq},
	} {
		if err := db.InsertRow("T", c.vals...); err == nil || err.Error() != c.want {
			t.Errorf("insert %v: %v, want %s", c.vals, err, c.want)
		}
	}
	if _, _, err := db.Exec("UPDATE T SET id = 2.0 WHERE id = 1", sqlparser.NoArgs); err == nil || err.Error() != pk {
		t.Errorf("update to a duplicate key: %v", err)
	}
	if _, _, err := db.Exec("UPDATE T SET email = 'b' WHERE id = 1", sqlparser.NoArgs); err == nil || err.Error() != uniq {
		t.Errorf("update to a duplicate UNIQUE value: %v", err)
	}
	if err := db.SetCell("T", 0, "score", 2); err == nil || err.Error() != uniq {
		t.Errorf("SetCell to a duplicate UNIQUE value: %v", err)
	}
	// The failed writes left every index as it was.
	checkKeyInvariants(t, db, rand.New(rand.NewSource(1)))
	if res := mustQuery(t, db, "SELECT id FROM T WHERE id = 1"); len(res.Rows) != 1 {
		t.Errorf("row 1 lost: %v", res)
	}
}

// rangeDB is a calendar database whose Events holds n rows with EId 1..n.
func rangeDB(t testing.TB, n int) *DB {
	db := calendarDB(t)
	for i := 4; i <= n; i++ {
		db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (?, ?, NULL)", i, []string{"public", "private"}[i%2])
	}
	return db
}

// TestRangeScanVisitsRange is the scan-work contract: a 50-row range
// read over a 4 000-row table visits the rows of its range, not the
// table, counted by the evaluator's per-row tick.
func TestRangeScanVisitsRange(t *testing.T) {
	db, keyed := rangeDB(t, 4000), keyTable(t)
	for i := 0; i < 4000; i++ {
		if err := keyed.InsertRow("T", i, fmt.Sprintf("m%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		db    *DB
		q     string
		limit int
	}{
		{db, "SELECT EId, Title FROM Events WHERE Title = 'public' AND EId >= 1000 AND EId < 1050", 50},
		{db, "SELECT EId FROM Events WHERE 1049 >= EId AND EId > 999 AND EId <> 1010", 50},
		// The generic evaluator ticks twice per candidate: FROM, WHERE.
		{db, "SELECT EId FROM Events WHERE EId >= 1000 AND EId < 1050 AND (Notes IS NULL OR EId = 0)", 100},
		// The narrowest key wins: the UNIQUE email, not the id range.
		{keyed, "SELECT id FROM T WHERE id >= 10 AND email = 'm77'", 1},
	} {
		sel := sqlparser.MustParseSelect(c.q)
		c.db.mu.RLock()
		ev := &evaluator{db: c.db}
		res, err := ev.execSelect(sel, nil, &rowsOut{})
		c.db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 || ev.ops > c.limit {
			t.Errorf("%s: %d rows, %d rows visited, want at most %d", c.q, len(res.Rows), ev.ops, c.limit)
		}
	}
}

// TestRealKeyScanParity pins reads over a REAL key holding NaN, which
// Compare finds equal to every number, to a full scan.
func TestRealKeyScanParity(t *testing.T) {
	db := keyTable(t)
	for i, score := range []float64{math.NaN(), 2, 1.5, math.Inf(-1), 3} {
		if err := db.InsertRow("T", i, fmt.Sprintf("m%d", i), score); err != nil {
			t.Fatal(err)
		}
	}
	ref := keylessMirror(t, db)
	for _, q := range []string{
		"SELECT id FROM T WHERE score = 2",
		"SELECT id FROM T WHERE score > 1.5 AND score <= 3",
		"SELECT id FROM T WHERE 2 > score",
		"SELECT id, score FROM T WHERE id >= 1 AND score < 10",
	} {
		if served, scan := servedQuery(db, q), genericQuery(t, ref, q); served != scan {
			t.Errorf("%s:\nserved:\n%s\nfull scan:\n%s", q, served, scan)
		}
	}
}

// TestRealCompositeKeyParity pins reads and writes over a composite key
// whose non-leading column is REAL and holds NaN to a keyless full scan
// and the reference row finder: NaN equals every number under '=', so
// the key's equality prefix stops before b. A NaN argument stops the
// prefix of an INTEGER composite key too.
func TestRealCompositeKeyParity(t *testing.T) {
	s, err := schema.NewBuilder().Table("T").
		NotNullCol("a", sqlvalue.Int).NotNullCol("b", sqlvalue.Real).NotNullCol("c", sqlvalue.Int).
		PK("a", "b").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	db := New(s)
	for i, r := range [][2]float64{{1, math.NaN()}, {1, 2}, {1, 7.5}, {2, math.NaN()}, {2, 2}, {3, 1}} {
		if err := db.InsertRow("T", int(r[0]), r[1], i); err != nil {
			t.Fatal(err)
		}
	}
	ref := keylessMirror(t, db)
	for _, q := range []string{
		"SELECT a, b FROM T WHERE a = 1 AND b = 2.0",
		"SELECT a, b FROM T WHERE b = 7 AND a = 1",
		"SELECT c FROM T WHERE a = 2 AND b = 2 AND c >= 0",
	} {
		if served, scan := servedQuery(db, q), genericQuery(t, ref, q); served != scan {
			t.Errorf("%s:\nserved:\n%s\nfull scan:\n%s", q, served, scan)
		}
	}
	cal := calendarDB(t)
	cal.MustExec("INSERT INTO Attendance (UId, EId) VALUES (2, 3), (3, 1)")
	nan, calRef := sqlparser.PositionalArgs(math.NaN(), 1), keylessMirror(t, cal)
	served, err := cal.QuerySQL("SELECT UId FROM Attendance WHERE UId = ? AND EId = ?", nan)
	scan, rerr := calRef.QuerySQL("SELECT UId FROM Attendance WHERE UId = ? AND EId = ?", nan)
	if fmt.Sprint(served, err) != fmt.Sprint(scan, rerr) {
		t.Errorf("UId = NaN AND EId = 1:\nserved:\n%v\nfull scan:\n%v", served, scan)
	}
	for _, q := range []string{
		"DELETE FROM T WHERE a = 1 AND b = 7",
		"DELETE FROM T WHERE 2 = b AND a = 2",
		"UPDATE T SET c = c + 10 WHERE a = 1 AND b = 2",
	} {
		served, ref := db.Clone(), db.Clone()
		_, n, err := served.Exec(q, sqlparser.NoArgs)
		rn, rerr := genericExec(t, ref, q)
		if got, want := fmt.Sprint(n, err, "\n", snapshotAll(served)), fmt.Sprint(rn, rerr, "\n", snapshotAll(ref)); got != want {
			t.Errorf("%s:\nserved: %s\nreference: %s", q, got, want)
		}
		checkIndexes(t, served)
	}
}

// ownerDB holds T(Id, Owner, Kind, B) with a secondary index declared on
// (Owner, Kind), the shape a policy census declares: rows 1..n spread
// 16 owners by 16 kinds, as inproc_cold's tables are, then 120 rows
// more under (Owner 2, Kind 3).
func ownerDB(t testing.TB, n int) *DB {
	s, err := schema.NewBuilder().Table("T").
		NotNullCol("Id", sqlvalue.Int).NotNullCol("Owner", sqlvalue.Int).NotNullCol("Kind", sqlvalue.Int).NotNullCol("B", sqlvalue.Text).
		PK("Id").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	db := New(s)
	if err := db.DeclareIndex("T", []string{"Owner", "Kind"}); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= n; id++ {
		if err := db.InsertRow("T", id, id%16, (id/16)%16, "b"); err != nil {
			t.Fatal(err)
		}
	}
	for id := n + 1; id <= n+120; id++ {
		if err := db.InsertRow("T", id, 2, 3, "x"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSecondaryIndexVisitsRange is the secondary index's scan-work
// contract: a read pinned to (Owner, Kind) over 2 168 rows visits the 8
// rows of its range, counted by the evaluator's per-row tick, and a
// point read through the primary key still visits one.
func TestSecondaryIndexVisitsRange(t *testing.T) {
	db := ownerDB(t, 2048)
	for _, c := range []struct {
		q     string
		limit int
	}{
		{"SELECT Id, B FROM T WHERE Owner = 5 AND Kind = 7", 8},
		{"SELECT Id FROM T WHERE Kind = 7 AND Owner = 5 AND Id = 117", 1},
	} {
		sel := sqlparser.MustParseSelect(c.q)
		db.mu.RLock()
		ev := &evaluator{db: db}
		res, err := ev.execSelect(sel, nil, &rowsOut{})
		db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.limit || ev.ops > c.limit {
			t.Errorf("%s: %d rows, %d rows visited, want %d", c.q, len(res.Rows), ev.ops, c.limit)
		}
	}
	checkIndexes(t, db)
}

func BenchmarkRangeScan(b *testing.B) {
	db := rangeDB(b, 4000)
	for _, c := range []struct{ name, q string }{
		{"point", "SELECT Title FROM Events WHERE EId = 2345"},
		{"range200", "SELECT EId, Title FROM Events WHERE Title = 'public' AND EId >= 2000 AND EId < 2200"},
		{"fullscan", "SELECT EId, Title FROM Events WHERE Title = 'none'"},
	} {
		sel := sqlparser.MustParseSelect(c.q)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInsertRowAllocs pins what an in-order InsertRow into a PK table
// allocates: the stored row, and nothing per key — the duplicate check
// and the index filing build the key tuple in a stack buffer. Growing
// the row and index arrays is amortized away by the per-run average.
func TestInsertRowAllocs(t *testing.T) {
	s, err := schema.NewBuilder().Table("T").
		NotNullCol("Id", sqlvalue.Int).NotNullCol("A", sqlvalue.Int).NotNullCol("B", sqlvalue.Text).
		PK("Id").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	db := New(s)
	const runs = 200
	rows := make([][]any, runs+1)
	for i := range rows {
		rows[i] = []any{int64(1000 + i), int64(7 * i), "b"}
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if err := db.InsertRow("T", rows[next]...); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if n > 1 {
		t.Errorf("InsertRow allocates %v times per row, want 1 (the row)", n)
	}
	if got := db.RowCount("T"); got != runs+1 {
		t.Fatalf("%d rows, want %d", got, runs+1)
	}
}
