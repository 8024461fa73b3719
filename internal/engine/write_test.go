package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

// scanRows is the write row finder's reference: every row, in storage
// order, tested by the generic evaluator — no key index and no
// eqCond.holds, as execGeneric is the reference for reads.
func scanRows(ev *evaluator, td *tableData, name string, where sqlparser.Expr) ([]int32, error) {
	sc := newScope(nil)
	sc.addTable(td.def, name, 0)
	var out []int32
	for i, r := range td.rows {
		ok, err := ev.predicate(where, sc, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, int32(i))
		}
	}
	return out, nil
}

// genericExec runs an UPDATE or DELETE as Update and Delete do, except
// that it finds its rows through scanRows; any other statement runs as
// served.
func genericExec(t testing.TB, db *DB, q string) (int, error) {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	bound, err := sqlparser.Bind(stmt, sqlparser.NoArgs)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	var table string
	var where sqlparser.Expr
	switch s := bound.(type) {
	case *sqlparser.UpdateStmt:
		table, where = s.Table, s.Where
	case *sqlparser.DeleteStmt:
		table, where = s.Table, s.Where
	default:
		_, n, err := db.ExecStmt(bound, sqlparser.NoArgs)
		return n, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(table)
	if !ok {
		t.Fatalf("%q: no table %s", q, table)
	}
	ev := &evaluator{db: db}
	pos, err := scanRows(ev, td, table, where)
	if err != nil {
		return 0, err
	}
	if upd, ok := bound.(*sqlparser.UpdateStmt); ok {
		return db.updateRows(ev, td, upd, pos)
	}
	db.deleteRows(td, pos)
	return len(pos), nil
}

// snapshotAll renders every table of db, for before/after comparisons.
func snapshotAll(db *DB) string {
	var b strings.Builder
	for _, name := range db.Tables() {
		b.WriteString(name + ":\n")
		b.WriteString((&Result{Rows: db.Snapshot(name)}).String())
	}
	return b.String()
}

// checkIndexes asserts that every key index of db files each row once,
// under the row's own key tuple, in strictly ascending key order, and
// that every built secondary index files each row once, in strictly
// ascending (key, position) order.
func checkIndexes(t *testing.T, db *DB) {
	t.Helper()
	for name, td := range db.tables {
		for _, sx := range td.secs {
			if !sx.built.Load() {
				continue
			}
			if len(sx.pos) != len(td.rows) {
				t.Fatalf("%s secondary index %v files %d rows, table holds %d", name, sx.cols, len(sx.pos), len(td.rows))
			}
			for i := 1; i < len(sx.pos); i++ {
				p, q := sx.pos[i-1], sx.pos[i]
				if c := sx.compare(td.rows[p], keyInto(nil, sx.cols, td.rows[q])); c > 0 || c == 0 && p >= q {
					t.Fatalf("%s secondary index %v entries %d (row %d) and %d (row %d) out of order", name, sx.cols, i-1, p, i, q)
				}
			}
		}
		for _, ix := range td.keys {
			if len(ix.pos) != len(td.rows) || len(ix.keys) != len(td.rows)*len(ix.cols) {
				t.Fatalf("%s %s index files %d rows, table holds %d", name, ix.what, len(ix.pos), len(td.rows))
			}
			seen := make([]bool, len(td.rows))
			for i, p := range ix.pos {
				if seen[p] {
					t.Fatalf("%s %s index files row %d twice", name, ix.what, p)
				}
				seen[p] = true
				if compareKeys(ix.entry(i), keyInto(nil, ix.cols, td.rows[p])) != 0 {
					t.Fatalf("%s %s entry %d holds %v, its row %v", name, ix.what, i, ix.entry(i), td.rows[p])
				}
				if i > 0 && compareKeys(ix.entry(i-1), ix.entry(i)) >= 0 {
					t.Fatalf("%s %s entries %d and %d out of order", name, ix.what, i-1, i)
				}
			}
		}
	}
}

// TestWriteAtomicity pins that a write that fails changes nothing: an
// UPDATE whose later row breaks a key, NOT NULL or a foreign key
// restores the rows it changed first, and a multi-row INSERT whose later
// row fails removes the rows it appended. Each reports 0 affected.
func TestWriteAtomicity(t *testing.T) {
	for _, c := range []struct{ q, want string }{
		// bob becomes 5, then carol collides with him.
		{"UPDATE Users SET UId = 5 WHERE UId >= 2", "engine: primary key violation on Users"},
		{"INSERT INTO Users (UId, Name) VALUES (10, 'x'), (2, 'dup')", "engine: primary key violation on Users"},
		// retro takes its Notes as Title, then offsite's Notes are NULL.
		{"UPDATE Events SET Title = Notes WHERE EId >= 2", "engine: NOT NULL violation on Events.Title"},
		// (1, 1) moves to the existing event 3, then (1, 2) to no event 4.
		{"UPDATE Attendance SET EId = EId + 2 WHERE UId <= 2", "engine: FK violation: Attendance(EId) -> Events"},
		{"INSERT INTO Attendance (UId, EId) VALUES (2, 2), (2, 9)", "engine: FK violation: Attendance(EId) -> Events"},
	} {
		db := calendarDB(t)
		before := snapshotAll(db)
		_, n, err := db.Exec(c.q, sqlparser.NoArgs)
		if err == nil || err.Error() != c.want || n != 0 {
			t.Errorf("%s: %d affected, error %v; want 0 and %q", c.q, n, err, c.want)
		}
		if after := snapshotAll(db); after != before {
			t.Errorf("%s: a failed write changed the tables:\n%swant\n%s", c.q, after, before)
		}
		checkIndexes(t, db)
	}
	// The rolled-back INSERT left no index entry behind: its key is free.
	db := calendarDB(t)
	_, _, _ = db.Exec("INSERT INTO Users (UId, Name) VALUES (10, 'x'), (2, 'dup')", sqlparser.NoArgs)
	if _, n, err := db.Exec("INSERT INTO Users (UId, Name) VALUES (10, 'y')", sqlparser.NoArgs); err != nil || n != 1 {
		t.Errorf("re-insert of a rolled-back key: %d, %v", n, err)
	}
}

// TestWriteVisitsRange is the write-work contract, the counterpart of
// TestRangeScanVisitsRange: a point UPDATE and a 50-row range DELETE on
// a 4 000-row table evaluate only their candidates, counted by the
// evaluator's per-row tick, and then write exactly those rows.
func TestWriteVisitsRange(t *testing.T) {
	db := rangeDB(t, 4000)
	for _, c := range []struct {
		q        string
		affected int
	}{
		{"UPDATE Events SET Title = 'moved' WHERE EId = 2345", 1},
		{"DELETE FROM Events WHERE EId >= 1000 AND EId < 1050", 50},
	} {
		stmt, err := sqlparser.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		var where sqlparser.Expr
		switch s := stmt.(type) {
		case *sqlparser.UpdateStmt:
			where = s.Where
		case *sqlparser.DeleteStmt:
			where = s.Where
		}
		db.mu.RLock()
		ev := &evaluator{db: db}
		pos, err := ev.matchRows(nil, db.tables["events"], "Events", where)
		db.mu.RUnlock()
		if err != nil || len(pos) != c.affected || ev.ops > c.affected {
			t.Errorf("%s: %d rows found (%v), %d rows visited; want %d and %d", c.q, len(pos), err, ev.ops, c.affected, c.affected)
		}
		if _, n, err := db.Exec(c.q, sqlparser.NoArgs); err != nil || n != c.affected {
			t.Errorf("%s: %d affected (%v), want %d", c.q, n, err, c.affected)
		}
	}
	if n := db.RowCount("Events"); n != 3950 {
		t.Errorf("%d events left, want 3950", n)
	}
	checkIndexes(t, db)
}

// TestRealKeyWriteParity pins writes over a REAL key holding NaN, which
// candidates never narrows, to the reference finder.
func TestRealKeyWriteParity(t *testing.T) {
	db := keyTable(t)
	for i, score := range []float64{math.NaN(), 2, 1.5, math.Inf(-1), 3} {
		if err := db.InsertRow("T", i, fmt.Sprintf("m%d", i), score); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"UPDATE T SET email = 'x' WHERE score = 2",
		"UPDATE T SET score = score + 10 WHERE score > 1.5 AND score <= 3",
		"UPDATE T SET email = NULL WHERE 2 > score",
		"UPDATE T SET score = 2 WHERE score <> 2",
		"DELETE FROM T WHERE score = 2",
		"DELETE FROM T WHERE id >= 1 AND score < 10",
		"DELETE FROM T WHERE score <> 3",
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
