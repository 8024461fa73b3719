package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/acerr"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// genericQuery runs q through the generic evaluator alone (subqueries
// still take either path), the reference the fast path must match; a
// failure comes back rendered as the result.
func genericQuery(t testing.TB, db *DB, q string) string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	bound, err := sqlparser.Bind(sel, sqlparser.NoArgs)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	res, err := (&evaluator{db: db}).execGeneric(bound.(*sqlparser.SelectStmt), nil)
	if err != nil {
		return "error: " + err.Error()
	}
	return res.String()
}

// servedQuery runs q the way QueryCtx does, rendered like genericQuery.
func servedQuery(db *DB, q string) string {
	res, err := db.QuerySQL(q, sqlparser.NoArgs)
	if err != nil {
		return "error: " + err.Error()
	}
	return res.String()
}

// streamedQuery runs q through QueryEach, copying out each row it is
// handed, rendered like genericQuery.
func streamedQuery(db *DB, q string) string {
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		return "error: " + err.Error()
	}
	bound, err := sqlparser.Bind(sel, sqlparser.NoArgs)
	if err != nil {
		return "error: " + err.Error()
	}
	res := &Result{}
	cols, _, n, err := db.QueryEach(context.Background(), bound.(*sqlparser.SelectStmt), func(r Row) {
		res.Rows = append(res.Rows, slices.Clone(r))
	})
	if err != nil {
		return "error: " + err.Error()
	}
	if n != len(res.Rows) {
		return "error: QueryEach counted " + itoa(n) + " rows and emitted " + itoa(len(res.Rows))
	}
	res.Columns = cols
	return res.String()
}

// TestEqScanParity pins the bound equality-scan fast path to the
// generic evaluator: every query runs twice (served, then through
// execGeneric alone) and the rendered results must match
// byte-for-byte — columns, rows, row order. The list mixes shapes the
// fast path serves (single table, AND-of-comparisons, plain
// projection) with shapes that must fall back (joins, aggregates,
// subqueries, ORDER BY, DISTINCT, qualified stars), so it also guards
// against the fast path claiming a query it cannot serve.
func TestEqScanParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randSeededDB(t, rng, 30)

	queries := []string{
		// In-scope shapes.
		"SELECT EId FROM Attendance WHERE UId = 5",
		"SELECT UId, EId FROM Attendance WHERE UId = 5 AND EId = 6",
		"SELECT 1 FROM Attendance WHERE UId = 5 AND EId = 6",
		"SELECT Name FROM Users WHERE UId = 2",
		"SELECT * FROM Users WHERE UId = 3",
		"SELECT * FROM Events WHERE EId > 10 AND EId <= 14",
		"SELECT Title FROM Events WHERE Title LIKE 'e%'",
		"SELECT Name FROM Users WHERE 2 = UId",
		"SELECT Name FROM Users WHERE UId <> 2 AND UId < 6",
		"SELECT u.Name FROM Users u WHERE u.UId = 4",
		"SELECT Notes FROM Events WHERE EId = 6",        // NULL projection
		"SELECT Title FROM Events WHERE Notes = 'nope'", // NULL comparisons filter
		"SELECT EId FROM Attendance WHERE UId = 99999",  // empty result
		// Fast path must decline these; parity still holds via fallback.
		"SELECT e.EId FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 5",
		"SELECT COUNT(*) FROM Attendance WHERE UId = 5",
		"SELECT EId FROM Attendance WHERE UId = 5 ORDER BY EId",
		"SELECT DISTINCT UId FROM Attendance WHERE UId < 10",
		"SELECT EId FROM Attendance WHERE UId = 5 OR UId = 6",
		"SELECT EId FROM Attendance WHERE UId IN (5, 6)",
		"SELECT Title FROM Events WHERE EXISTS (SELECT 1 FROM Attendance WHERE Attendance.EId = Events.EId)",
		"SELECT u.* FROM Users u WHERE u.UId = 2",
		"SELECT LOWER(Name) FROM Users WHERE UId = 2",
		"SELECT EId FROM Attendance WHERE UId = 5 LIMIT 1",
		"SELECT Title FROM Events WHERE Notes IS NULL AND EId < 8",
	}
	for _, q := range queries {
		if fast, generic := servedQuery(db, q), genericQuery(t, db, q); fast != generic {
			t.Errorf("eq-scan parity broken for %q:\nfast path:\n%s\ngeneric:\n%s", q, fast, generic)
		} else if streamed := streamedQuery(db, q); streamed != generic {
			t.Errorf("streamed read of %q:\n%s\ngeneric:\n%s", q, streamed, generic)
		}
		// A Describe's columns, derived without running the query.
		sel := sqlparser.MustParseSelect(q)
		if res, err := db.Query(sel); err != nil || !slices.Equal(db.ResultColumns(sel), res.Columns) {
			t.Errorf("%q: ResultColumns %q, the run's columns %v (%v)", q, db.ResultColumns(sel), res, err)
		}
	}
}

// TestEqScanRandomizedParity hammers the fast path with generated
// single-table conjunction queries over random data — every eligible
// (column, op, literal) combination the planner accepts must agree
// with the generic evaluator — then runs the key-index parity cases
// (checkScanParity): every key, literal type and side, tables filled
// out of key order and rewritten, against a keyless full scan too.
func TestEqScanRandomizedParity(t *testing.T) {
	var reach scanReach
	for seed := int64(0); seed < 100; seed++ {
		checkScanParity(t, seed, &reach)
	}
	t.Logf("%+v", reach)
	// A generator that never reaches a case pins nothing about it.
	if reach.allExact < reach.reads/20 || reach.nullable < reach.reads/100 || reach.crossClass < reach.reads/20 ||
		reach.textRange < reach.reads/200 || reach.composite < reach.reads/50 || reach.realNaN < reach.reads/100 {
		t.Fatalf("generator is lopsided: %+v", reach)
	}
	rng := rand.New(rand.NewSource(11))
	db := randSeededDB(t, rng, 40)

	cols := []string{"UId", "EId"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for i := 0; i < 300; i++ {
		q := "SELECT UId, EId FROM Attendance WHERE "
		n := rng.Intn(3) + 1
		for c := 0; c < n; c++ {
			if c > 0 {
				q += " AND "
			}
			col := cols[rng.Intn(len(cols))]
			op := ops[rng.Intn(len(ops))]
			lit := rng.Intn(50)
			if rng.Intn(4) == 0 {
				q += itoa(lit) + " " + op + " " + col
			} else {
				q += col + " " + op + " " + itoa(lit)
			}
		}
		if fast, generic := servedQuery(db, q), genericQuery(t, db, q); fast != generic {
			t.Fatalf("randomized parity broken for %q:\nfast path:\n%s\ngeneric:\n%s", q, fast, generic)
		}
	}
}

// TestEqCondHoldsParity pins the bound scan's comparison to the
// evaluator's: for every operator and every ordered pair from a pool of
// every class (and the values where classes meet: 2 against 2.0, NaN,
// numeric text, the empty string), eqCond.holds must be
// truth(applyBinary(op, l, r)) == True — with the literal on the right,
// and on the left as localConds stores it (mirrored, or litLeft for
// LIKE).
func TestEqCondHoldsParity(t *testing.T) {
	pool := []sqlvalue.Value{
		sqlvalue.NewNull(), sqlvalue.NewInt(2), sqlvalue.NewReal(2.0), sqlvalue.NewReal(2.5),
		sqlvalue.NewReal(math.NaN()), sqlvalue.NewText("2"), sqlvalue.NewText(""),
		sqlvalue.NewText("%"), sqlvalue.NewBool(true),
	}
	for op, m := range mirrored {
		for _, l := range pool {
			for _, r := range pool {
				v, err := applyBinary(op, l, r)
				if err != nil {
					t.Fatal(err)
				}
				want := truth(v) == sqlvalue.True
				litRight := eqCond{op: op, lit: r}
				litLeft := eqCond{op: m, lit: l, litLeft: op == sqlparser.OpLike}
				if got := litRight.holds(Row{l}); got != want {
					t.Errorf("row %v op %d literal %v: holds %v, evaluator %v", l, op, r, got, want)
				}
				if got := litLeft.holds(Row{r}); got != want {
					t.Errorf("literal %v op %d row %v: holds %v, evaluator %v", l, op, r, got, want)
				}
			}
		}
	}
}

// TestEqCondTypedParity pins holds' typed comparisons — INTEGER against
// INTEGER, TEXT = and <> against TEXT — to the evaluator over values
// that order both ways, every operator, the literal on either side.
func TestEqCondTypedParity(t *testing.T) {
	for _, pool := range [][]sqlvalue.Value{
		{sqlvalue.NewInt(math.MinInt64), sqlvalue.NewInt(-1), sqlvalue.NewInt(2), sqlvalue.NewInt(3), sqlvalue.NewInt(math.MaxInt64)},
		{sqlvalue.NewText(""), sqlvalue.NewText("a"), sqlvalue.NewText("ab"), sqlvalue.NewText("b"), sqlvalue.NewText("%")},
	} {
		for op, m := range mirrored {
			for _, l := range pool {
				for _, r := range pool {
					v, err := applyBinary(op, l, r)
					if err != nil {
						t.Fatal(err)
					}
					want := truth(v) == sqlvalue.True
					right, left := eqCond{op: op, lit: r}, eqCond{op: m, lit: l, litLeft: op == sqlparser.OpLike}
					if right.holds(Row{l}) != want || left.holds(Row{r}) != want {
						t.Errorf("%v op %d %v: holds %v / %v, evaluator %v", l, op, r, right.holds(Row{l}), left.holds(Row{r}), want)
					}
				}
			}
		}
	}
}

// TestScanAllocsConstant is the bound scan's allocation contract: a
// range read allocates its Result, its column names, one slab of
// cells and one slice of row headers — the same count for 50 rows as
// for 500, and at most 4. Each row is capped at its own cells, so an
// append to one cannot write into the next.
func TestScanAllocsConstant(t *testing.T) {
	db := rangeDB(t, 2000)
	counts := map[int]float64{}
	for _, rows := range []int{50, 500} {
		sel := sqlparser.MustParseSelect("SELECT EId, Title FROM Events WHERE EId >= 1000 AND EId < " + itoa(1000+rows))
		var res *Result
		counts[rows] = testing.AllocsPerRun(50, func() {
			var err error
			if res, err = db.Query(sel); err != nil || len(res.Rows) != rows {
				t.Fatalf("%v; want %d rows", err, rows)
			}
		})
		next := res.Rows[1][0]
		_ = append(res.Rows[0], sqlvalue.NewText("spill"))
		if cap(res.Rows[0]) != 2 || !sqlvalue.Identical(res.Rows[1][0], next) {
			t.Errorf("row 0 has capacity %d; an append to it rewrote row 1 to %v", cap(res.Rows[0]), res.Rows[1])
		}
	}
	if counts[50] != counts[500] || counts[500] > 4 {
		t.Errorf("bound range read allocates %v times for 50 rows, %v for 500; contract is the same count, at most 4", counts[50], counts[500])
	}
	// The same contract for a read through a secondary index, built by
	// the warm-up run AllocsPerRun makes.
	owner := ownerDB(t, 2048)
	for _, c := range []struct {
		rows        int
		owner, kind int
	}{{8, 5, 7}, {128, 2, 3}} {
		sel := sqlparser.MustParseSelect("SELECT Id, Owner, Kind FROM T WHERE Owner = " + itoa(c.owner) + " AND Kind = " + itoa(c.kind))
		counts[c.rows] = testing.AllocsPerRun(50, func() {
			if res, err := owner.Query(sel); err != nil || len(res.Rows) != c.rows {
				t.Fatalf("%v; want %d rows", err, c.rows)
			}
		})
	}
	if counts[8] != counts[128] || counts[128] > 4 {
		t.Errorf("secondary-index read allocates %v times for 8 rows, %v for 128; contract is the same count, at most 4", counts[8], counts[128])
	}
}

// TestQueryEachCanceled pins that a context canceled while a bound scan
// streams its rows stops the read within the 1 024 candidates between
// polls, with acerr.ErrCanceled.
func TestQueryEachCanceled(t *testing.T) {
	db := rangeDB(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, _, _, err := db.QueryEach(ctx, sqlparser.MustParseSelect("SELECT EId, Title FROM Events WHERE EId >= 1"), func(Row) {
		if seen++; seen == 10 {
			cancel()
		}
	})
	if !errors.Is(err, acerr.ErrCanceled) || seen > 1024 {
		t.Errorf("canceled after 10 rows: emitted %d, %v", seen, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
