package driver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

func testServer(t *testing.T, mode proxy.Mode) (*proxy.Server, string) {
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
	db := engine.New(s)
	db.MustExec("INSERT INTO Users (UId, Name) VALUES (1, 'alice'), (2, 'bob')")
	db.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (2, 'retro', 'snacks'), (3, 'offsite', NULL)")
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (1, 2), (2, 3)")
	pol := policy.MustNew(s, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2": "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
	})
	srv := proxy.NewServer(db, checker.New(pol), mode)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func openDB(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("beyond", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// One pooled conn: compliance decisions are per-session history,
	// and a single conn keeps the test's query sequence on one trace.
	db.SetMaxOpenConns(1)
	return db
}

// TestStockDatabaseSQL drives the driver exactly as an unmodified
// application would: Open with a DSN, QueryContext, Scan, Exec —
// nothing imported beyond database/sql.
func TestStockDatabaseSQL(t *testing.T) {
	_, addr := testServer(t, proxy.Enforce)
	db := openDB(t, addr+"?MyUId=1")

	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryContext(context.Background(),
		"SELECT EId FROM Attendance WHERE UId = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "EId" {
		t.Fatalf("columns = %v", cols)
	}
	var got []int64
	for rows.Next() {
		var eid int64
		if err := rows.Scan(&eid); err != nil {
			t.Fatal(err)
		}
		got = append(got, eid)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("rows = %v, want [2]", got)
	}

	// Writes pass through with RowsAffected.
	res, err := db.ExecContext(context.Background(),
		"INSERT INTO Attendance (UId, EId) VALUES (?, ?)", int64(1), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("RowsAffected = %d, want 1", n)
	}
}

// TestErrBlockedUnwrapping pins the typed-error contract: the error
// database/sql hands back for a policy block unwraps to ErrBlocked
// with errors.Is, exactly like the native client's.
func TestErrBlockedUnwrapping(t *testing.T) {
	_, addr := testServer(t, proxy.Enforce)
	db := openDB(t, addr+"?MyUId=1")

	rows, err := db.Query("SELECT * FROM Events WHERE EId=3")
	if err == nil {
		rows.Close()
		t.Fatal("expected a policy block")
	}
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("errors.Is(err, ErrBlocked) = false for %v", err)
	}
	var be *proxy.BlockedError
	if !errors.As(err, &be) {
		t.Fatalf("errors.As(*proxy.BlockedError) = false for %v", err)
	}
	if be.Reason == "" {
		t.Fatal("blocked error carries no reason")
	}

	// The connection stays usable after a block.
	var eid int64
	if err := db.QueryRow("SELECT EId FROM Attendance WHERE UId = ?", 1).Scan(&eid); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedStatements(t *testing.T) {
	_, addr := testServer(t, proxy.Enforce)
	db := openDB(t, addr+"?MyUId=1")

	st, err := db.Prepare("SELECT EId FROM Attendance WHERE UId = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		var eid int64
		if err := st.QueryRow(int64(1)).Scan(&eid); err != nil {
			t.Fatal(err)
		}
		if eid != 2 {
			t.Fatalf("eid = %d, want 2", eid)
		}
	}

	// NumInput is enforced client-side by database/sql.
	if _, err := st.Query(); err == nil {
		t.Fatal("expected arity error for missing argument")
	}
}

func TestContextCancellation(t *testing.T) {
	// LogOnly so the engine actually runs the pathological scan.
	s, err := schema.NewBuilder().
		Table("Big").NotNullCol("N", sqlvalue.Int).PK("N").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	edb := engine.New(s)
	var sb strings.Builder
	sb.WriteString("INSERT INTO Big (N) VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	edb.MustExec(sb.String())
	pol := policy.MustNew(s, map[string]string{"V1": "SELECT N FROM Big"})
	srv := proxy.NewServer(edb, checker.New(pol), proxy.LogOnly)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	db := openDB(t, addr+"?MyUId=1")
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, qerr := db.QueryContext(ctx,
		"SELECT a.N FROM Big a, Big b, Big c WHERE a.N + b.N + c.N < 0")
	if qerr == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(qerr, context.DeadlineExceeded) && !errors.Is(qerr, ErrCanceled) {
		t.Fatalf("got %v, want deadline/canceled", qerr)
	}
	// Server-side cancel means we return promptly, not after the scan.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Connection is poisoned? No: v2 cancel aborts the request, the
	// conn survives. database/sql may still discard it; a fresh query
	// must work either way.
	var one int64
	if err := db.QueryRow("SELECT N FROM Big WHERE N = ?", 1).Scan(&one); err != nil {
		t.Fatal(err)
	}
}

func TestDSNParsing(t *testing.T) {
	cfg, err := parseDSN("beyond://127.0.0.1:7781?MyUId=7&flag=true&ratio=0.5&who=alice&session=s1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:7781" || cfg.session != "s1" {
		t.Fatalf("cfg = %+v", cfg)
	}
	want := map[string]any{"MyUId": int64(7), "flag": true, "ratio": 0.5, "who": "alice"}
	for k, v := range want {
		if cfg.attrs[k] != v {
			t.Errorf("attr %s = %#v, want %#v", k, cfg.attrs[k], v)
		}
	}
	if _, err := parseDSN("?MyUId=1"); err == nil {
		t.Fatal("accepted empty address")
	}
}

func TestDurableSessionDSN(t *testing.T) {
	srv, addr := testServer(t, proxy.Enforce)
	srv.WALDir = t.TempDir()
	// Re-listen is unnecessary: the running server serves durable
	// hellos as soon as its WAL is open.
	if err := srv.OpenDurable(); err != nil {
		t.Fatal(err)
	}

	db := openDB(t, addr+"?MyUId=1&session=app-1")
	var eid int64
	if err := db.QueryRow("SELECT EId FROM Attendance WHERE UId = ?", 1).Scan(&eid); err != nil {
		t.Fatal(err)
	}
}
