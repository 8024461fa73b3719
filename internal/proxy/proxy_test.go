package proxy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

func testServer(t testing.TB, mode Mode) *Server {
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
	return NewServer(db, checker.New(pol), mode)
}

func dialTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestEndToEndExample21(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}

	// Q2 alone: blocked.
	_, err := cl.Query(context.Background(), "SELECT * FROM Events WHERE EId=2")
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("Q2 alone should be blocked, got %v", err)
	}

	// Q1: allowed, returns one row.
	rows, err := cl.Query(context.Background(), "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Empty() {
		t.Fatal("Q1 should match seeded attendance")
	}

	// Q2 after Q1: allowed by history.
	rows, err = cl.Query(context.Background(), "SELECT * FROM Events WHERE EId=2")
	if err != nil {
		t.Fatalf("Q2 after Q1 should be allowed: %v", err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][1].Text() != "retro" {
		t.Fatalf("Q2 result: %+v", rows)
	}
}

func TestSessionIsolation(t *testing.T) {
	srv := testServer(t, Enforce)
	cl1 := dialTest(t, srv)
	if err := cl1.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	// Prime history on connection 1.
	if _, err := cl1.Query(context.Background(), "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"); err != nil {
		t.Fatal(err)
	}

	// A separate connection for user 2 must not inherit that history.
	cl2, err := Dial(srv.lns[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Hello(context.Background(), map[string]any{"MyUId": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Query(context.Background(), "SELECT * FROM Events WHERE EId=2"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("user 2 must not benefit from user 1's history: %v", err)
	}
}

func TestLogOnlyMode(t *testing.T) {
	srv := testServer(t, LogOnly)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	rows, err := cl.Query(context.Background(), "SELECT * FROM Events WHERE EId=2")
	if err != nil {
		t.Fatalf("log-only must forward: %v", err)
	}
	if rows.Empty() {
		t.Fatal("expected data in log-only mode")
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, st, "proxy.violations") != 1 {
		t.Errorf("violations: %v", st)
	}
}

func TestOffMode(t *testing.T) {
	srv := testServer(t, Off)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(context.Background(), "SELECT * FROM Attendance"); err != nil {
		t.Fatalf("off mode forwards everything: %v", err)
	}
}

func TestExecPassthrough(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	n, err := cl.Exec(context.Background(), "INSERT INTO Attendance (UId, EId) VALUES (?, ?)", 1, 3)
	if err != nil || n != 1 {
		t.Fatalf("exec: n=%d err=%v", n, err)
	}
	rows, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1 ORDER BY EId")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("after insert: %+v", rows)
	}
}

func TestQueryErrorsSurface(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(context.Background(), "SELECT nope FROM"); err == nil {
		t.Fatal("parse error should surface")
	}
	// Connection still usable afterwards.
	if _, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1"); err != nil {
		t.Fatalf("connection should survive an error: %v", err)
	}
}

func TestInProcessHandle(t *testing.T) {
	srv := testServer(t, Enforce)
	sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)})
	resp := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}, sess)
	if !resp.OK || resp.Blocked {
		t.Fatalf("in-process query: %+v", resp)
	}
	if sess.Trace().Len() != 1 {
		t.Errorf("trace length: %d", sess.Trace().Len())
	}
}

// TestRecordedRowsSurviveUpdate pins that the trace may share the
// engine's result rows: an UPDATE of the row a query returned leaves
// both the recorded trace entry and the response with the old values.
func TestRecordedRowsSurviveUpdate(t *testing.T) {
	srv := testServer(t, Enforce)
	sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)})
	srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2"}, sess)
	resp := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT * FROM Events WHERE EId = 2"}, sess)
	if !resp.OK || resp.Blocked || len(resp.Rows) != 1 {
		t.Fatalf("query: %+v", resp)
	}
	upd := srv.HandleInCtx(context.Background(), &Request{Op: "exec", SQL: "UPDATE Events SET Title = 'changed', Notes = NULL WHERE EId = 2"}, sess)
	if !upd.OK || upd.Affected != 1 {
		t.Fatalf("update: %+v", upd)
	}
	if got := resp.Rows[0][1]; got.Text() != "retro" {
		t.Errorf("response row changed under it: Title = %v", got)
	}
	entries, _ := sess.Trace().SnapshotState()
	row := entries[len(entries)-1].Rows[0]
	if row[1].Text() != "retro" || row[2].Text() != "snacks" {
		t.Errorf("trace entry changed under it: %v", row)
	}
	if now := srv.DB.Snapshot("Events")[0]; now[1].Text() != "changed" {
		t.Errorf("update not applied: %v", now)
	}
}

func TestStatsOverWire(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	_, _ = cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1")
	_, _ = cl.Query(context.Background(), "SELECT * FROM Attendance")
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, st, "proxy.queries") != 2 || metric(t, st, "checker.allowed") != 1 || metric(t, st, "checker.blocked") != 1 {
		t.Errorf("stats: %v", st)
	}
}

// The contradictory-equality sequence: a probe whose equalities cannot
// both hold is harmless (it returns nothing), but its empty answer must
// not be recorded as "no row of R has Kind = 1" — a false negative fact
// under which the full-row read of Kind = 1 would then "reveal no
// database content". The read is blocked before the probe and stays
// blocked after it, with literals and with arguments. The same holds for
// an empty answer that LIMIT or OFFSET cut short.
func TestContradictoryEqualityProbeDoesNotUnlock(t *testing.T) {
	s, err := schema.NewBuilder().
		Table("R").
		NotNullCol("Id", sqlvalue.Int).
		NotNullCol("Owner", sqlvalue.Int).
		NotNullCol("Kind", sqlvalue.Int).
		NotNullCol("A", sqlvalue.Int).
		PK("Id").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(s)
	db.MustExec("INSERT INTO R (Id, Owner, Kind, A) VALUES (1, 7, 1, 10), (2, 8, 2, 20)")
	pol := policy.MustNew(s, map[string]string{"V": "SELECT Id FROM R WHERE Kind = 1"})
	const read = "SELECT Id, Owner, A FROM R WHERE Kind = 1"
	for _, probe := range []*Request{
		{Op: "query", SQL: "SELECT Id FROM R WHERE Kind = 1 AND Kind = 2"},
		{Op: "query", SQL: "SELECT Id FROM R WHERE Kind = ? AND Kind = ?", Args: []any{1, 2}},
		// A probe the policy allows, whose answer LIMIT or OFFSET cuts to
		// nothing: it shows no row, and proves none absent.
		{Op: "query", SQL: "SELECT Id FROM R WHERE Kind = 1 LIMIT 0"},
		{Op: "query", SQL: "SELECT Id FROM R WHERE Kind = 1 LIMIT 5 OFFSET 100"},
		{Op: "query", SQL: "SELECT Id FROM R WHERE Kind = 1 LIMIT ?", Args: []any{0}},
	} {
		srv := NewServer(db, checker.New(pol), Enforce)
		sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(7)})
		if resp := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: read}, sess); !resp.Blocked {
			t.Fatalf("full-row read before the probe: %+v", resp)
		}
		if resp := srv.HandleInCtx(context.Background(), probe, sess); !resp.OK || len(resp.Rows) != 0 {
			t.Fatalf("probe %q: %+v", probe.SQL, resp)
		}
		if resp := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: read}, sess); !resp.Blocked {
			t.Fatalf("full-row read after probe %q was allowed: %+v", probe.SQL, resp)
		}
	}
}
