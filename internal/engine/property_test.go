package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sqlparser"
)

// randSeededDB builds a calendar database with n rows of random but
// FK-consistent data.
func randSeededDB(t *testing.T, rng *rand.Rand, n int) *DB {
	t.Helper()
	db := calendarDB(t)
	// calendarDB seeds 3 users/events; extend with random rows.
	for i := 4; i < 4+n; i++ {
		db.MustExec("INSERT INTO Users (UId, Name) VALUES (?, ?)", i, fmt.Sprintf("u%d", i))
		db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (?, ?, NULL)", i, fmt.Sprintf("e%d", rng.Intn(5)))
	}
	for i := 4; i < 4+n; i++ {
		u := rng.Intn(n) + 4
		e := rng.Intn(n) + 4
		_, _, _ = db.Exec("INSERT INTO Attendance (UId, EId) VALUES (?, ?)",
			sqlparser.PositionalArgs(u, e)) // duplicates rejected; fine
	}
	return db
}

// TestFilterPushdownEquivalence: filtering after a join equals
// filtering via the ON clause.
func TestFilterPushdownEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randSeededDB(t, rng, 20)
	a := mustQuery(t, db,
		"SELECT e.EId, e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 5 ORDER BY e.EId")
	b := mustQuery(t, db,
		"SELECT e.EId, e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId AND a.UId = 5 ORDER BY e.EId")
	if a.String() != b.String() {
		t.Fatalf("pushdown mismatch:\n%s\nvs\n%s", a, b)
	}
}

// TestDistinctIdempotent: DISTINCT of DISTINCT-able output has no
// duplicates and re-running is stable.
func TestDistinctIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randSeededDB(t, rng, 25)
	res := mustQuery(t, db, "SELECT DISTINCT Title FROM Events ORDER BY Title")
	seen := map[string]bool{}
	for _, r := range res.Rows {
		k := r[0].Text()
		if seen[k] {
			t.Fatalf("duplicate after DISTINCT: %q", k)
		}
		seen[k] = true
	}
	res2 := mustQuery(t, db, "SELECT DISTINCT Title FROM Events ORDER BY Title")
	if res.String() != res2.String() {
		t.Fatal("DISTINCT not deterministic")
	}
}

// TestLimitMonotonicity: LIMIT k is a prefix of LIMIT k+1 under the
// same ORDER BY.
func TestLimitMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randSeededDB(t, rng, 30)
	prev := mustQuery(t, db, "SELECT UId FROM Users ORDER BY UId LIMIT 1")
	for k := 2; k <= 8; k++ {
		cur := mustQuery(t, db, fmt.Sprintf("SELECT UId FROM Users ORDER BY UId LIMIT %d", k))
		if len(cur.Rows) < len(prev.Rows) {
			t.Fatalf("LIMIT %d returned fewer rows than LIMIT %d", k, k-1)
		}
		for i := range prev.Rows {
			if prev.Rows[i][0].Int() != cur.Rows[i][0].Int() {
				t.Fatalf("LIMIT %d is not a prefix of LIMIT %d", k-1, k)
			}
		}
		prev = cur
	}
}

// TestCountMatchesRowCount: COUNT(*) equals the number of rows the
// same body returns.
func TestCountMatchesRowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randSeededDB(t, rng, 25)
	rows := mustQuery(t, db, "SELECT UId, EId FROM Attendance")
	cnt := mustQuery(t, db, "SELECT COUNT(*) FROM Attendance")
	if int64(len(rows.Rows)) != cnt.Rows[0][0].Int() {
		t.Fatalf("count %d != rows %d", cnt.Rows[0][0].Int(), len(rows.Rows))
	}
}

// TestOffsetPartition: LIMIT k plus OFFSET k LIMIT rest partitions the
// ordered result.
func TestOffsetPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randSeededDB(t, rng, 20)
	all := mustQuery(t, db, "SELECT UId FROM Users ORDER BY UId")
	first := mustQuery(t, db, "SELECT UId FROM Users ORDER BY UId LIMIT 5")
	rest := mustQuery(t, db, "SELECT UId FROM Users ORDER BY UId LIMIT 1000 OFFSET 5")
	if len(first.Rows)+len(rest.Rows) != len(all.Rows) {
		t.Fatalf("partition sizes: %d + %d != %d", len(first.Rows), len(rest.Rows), len(all.Rows))
	}
	for i, r := range append(first.Rows, rest.Rows...) {
		if r[0].Int() != all.Rows[i][0].Int() {
			t.Fatalf("partition order broken at %d", i)
		}
	}
}

// TestConcurrentReadsAndWrites: the engine must tolerate parallel
// readers with a writer (exercises the RWMutex paths under -race).
func TestConcurrentReadsAndWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := randSeededDB(t, rng, 10)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if _, err := db.QuerySQL("SELECT COUNT(*) FROM Attendance", sqlparser.NoArgs); err != nil {
						errs <- err
						return
					}
				} else {
					u := 100 + g*1000 + i
					if _, _, err := db.Exec("INSERT INTO Users (UId, Name) VALUES (?, ?)",
						sqlparser.PositionalArgs(u, "w")); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSecondaryIndexConcurrentBuild races 8 readers, one of them
// cloning, to build an unbuilt secondary index while a writer inserts,
// updates and deletes rows; afterwards the index must hold and every
// (Owner, Kind) read agree with a keyless full scan.
func TestSecondaryIndexConcurrentBuild(t *testing.T) {
	base := ownerDB(t, 512)
	for round := 0; round < 4; round++ {
		db := base.Clone() // a clone's secondary index starts unbuilt
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					if _, err := db.QuerySQL("SELECT Id FROM T WHERE Owner = ? AND Kind = ?", sqlparser.PositionalArgs(g, i%16)); err != nil {
						t.Error(err)
						return
					}
					if g == 0 {
						db.Clone()
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				id := 10000 + round*100 + i
				for _, w := range []struct {
					q    string
					args []any
				}{
					{"INSERT INTO T (Id, Owner, Kind, B) VALUES (?, ?, ?, 'w')", []any{id, i % 16, i % 4}},
					{"UPDATE T SET Kind = Kind + 1 WHERE Owner = ? AND Kind = ?", []any{i % 16, i % 4}},
					{"DELETE FROM T WHERE Owner = ? AND Kind = ? AND Id < ?", []any{(i + 3) % 16, i % 16, 200}},
				} {
					if _, _, err := db.Exec(w.q, sqlparser.PositionalArgs(w.args...)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		close(start)
		wg.Wait()
		checkIndexes(t, db)
		ref := keylessMirror(t, db)
		for o := 0; o < 16; o++ {
			for k := 0; k < 16; k++ {
				q := "SELECT Id, Kind FROM T WHERE Owner = " + itoa(o) + " AND Kind = " + itoa(k)
				if served, scan := servedQuery(db, q), genericQuery(t, ref, q); served != scan {
					t.Fatalf("round %d: %s:\nserved:\n%s\nfull scan:\n%s", round, q, served, scan)
				}
			}
		}
	}
}

// TestSubqueryJoinEquivalence: IN (subquery) equals the equivalent
// join under DISTINCT.
func TestSubqueryJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randSeededDB(t, rng, 25)
	a := mustQuery(t, db,
		"SELECT DISTINCT Title FROM Events WHERE EId IN (SELECT EId FROM Attendance) ORDER BY Title")
	b := mustQuery(t, db,
		"SELECT DISTINCT e.Title FROM Events e JOIN Attendance at ON e.EId = at.EId ORDER BY e.Title")
	if a.String() != b.String() {
		t.Fatalf("IN-subquery vs join mismatch:\n%s\nvs\n%s", a, b)
	}
}

// TestExistsNotExistsPartition: EXISTS and NOT EXISTS partition the
// outer table.
func TestExistsNotExistsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := randSeededDB(t, rng, 25)
	all := mustQuery(t, db, "SELECT COUNT(*) FROM Events")
	with := mustQuery(t, db,
		"SELECT COUNT(*) FROM Events e WHERE EXISTS (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)")
	without := mustQuery(t, db,
		"SELECT COUNT(*) FROM Events e WHERE NOT EXISTS (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)")
	if with.Rows[0][0].Int()+without.Rows[0][0].Int() != all.Rows[0][0].Int() {
		t.Fatalf("EXISTS partition: %d + %d != %d",
			with.Rows[0][0].Int(), without.Rows[0][0].Int(), all.Rows[0][0].Int())
	}
}
