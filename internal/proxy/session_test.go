package proxy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/durable"
	"repro/internal/sqlvalue"
)

// TestFailedHelloResetsSession pins the tighten-only rule for a
// re-hello: a session that said hello as user 1 and built history, then
// fails to re-hello as user 2, is left empty — no attributes and an
// empty trace — so nothing is decided for user 2 on user 1's history.
func TestFailedHelloResetsSession(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, srv *Server)
	}{
		{"durable open error", func(t *testing.T, srv *Server) {
			srv.WALDir = t.TempDir()
			if err := srv.OpenDurable(); err != nil {
				t.Fatal(err)
			}
			// A closed log refuses the session record, so the durable
			// open fails.
			if err := srv.Durable().Log().Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t, Enforce)
			quietLog(t, srv)
			tc.setup(t, srv)
			ctx := context.Background()
			sess := NewSession(nil)
			do := func(req *Request) Response { return srv.HandleInCtx(ctx, req, sess) }

			if r := do(&Request{Op: "hello", Session: map[string]any{"MyUId": 1}}); !r.OK {
				t.Fatalf("hello as user 1: %+v", r)
			}
			if r := do(&Request{Op: "query", SQL: "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"}); !r.OK || r.Blocked {
				t.Fatalf("user 1's attendance query: %+v", r)
			}
			if r := do(&Request{Op: "query", SQL: "SELECT * FROM Events WHERE EId=2"}); !r.OK || r.Blocked {
				t.Fatalf("user 1's event query after its history: %+v", r)
			}

			r := do(&Request{Op: "hello", Name: "user-2", Session: map[string]any{"MyUId": 2}})
			if r.Error == "" {
				t.Fatalf("re-hello as user 2 should fail: %+v", r)
			}
			if n := len(sess.inner.attrs); n != 0 {
				t.Fatalf("after a failed hello the session keeps %d attribute(s): %v", n, sess.inner.attrs)
			}
			if n := sess.Trace().Len(); n != 0 {
				t.Fatalf("after a failed hello the session keeps %d history entries", n)
			}
			if sess.inner.name != "" {
				t.Fatalf("after a failed hello the session keeps its name %q", sess.inner.name)
			}
			if r := do(&Request{Op: "query", SQL: "SELECT * FROM Events WHERE EId=2"}); r.OK && !r.Blocked {
				t.Fatalf("event query allowed on an empty session: %+v", r)
			}
		})
	}
}

// TestFactCacheCountsOnce: the server's fact-cache totals count each
// derivation once, on every ingress. Two v2 connections and one
// in-process session share one durable trace; once every entry of it is
// derived, the server's translated total must be its length.
func TestFactCacheCountsOnce(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	srv.WALDir = t.TempDir()
	srv.WALOpts = durable.Options{Fsync: durable.FsyncOff}
	ctx := context.Background()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var clients []*Client
	for i := 0; i < 2; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients = append(clients, cl)
	}
	a, b := clients[0], clients[1]
	for _, cl := range clients {
		if _, err := cl.HelloDurable(ctx, "shared", map[string]any{"MyUId": 1}); err != nil {
			t.Fatal(err)
		}
	}
	sess := NewSession(nil)
	inproc := func(sql string) {
		t.Helper()
		if r := srv.HandleInCtx(ctx, &Request{Op: "query", SQL: sql}, sess); r.Error != "" {
			t.Fatalf("in-process %s: %+v", sql, r)
		}
	}
	if r := srv.HandleInCtx(ctx, &Request{Op: "hello", Name: "shared", Session: map[string]any{"MyUId": 1}}, sess); !r.OK {
		t.Fatalf("in-process hello: %+v", r)
	}
	query := func(cl *Client, sql string) {
		t.Helper()
		if _, err := cl.Query(ctx, sql); err != nil && !errors.Is(err, ErrBlocked) {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	query(a, "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	query(b, "SELECT * FROM Events WHERE EId=2")
	inproc("SELECT EId FROM Attendance WHERE UId = 1")
	query(a, "SELECT * FROM Events WHERE EId=3")
	inproc("SELECT * FROM Events WHERE EId=2")
	query(b, "SELECT * FROM Events WHERE EId=3")
	query(a, "SELECT * FROM Events WHERE EId=2")

	// Every entry of the one shared trace derived, each exactly once:
	// counted once, the server's total is the trace's length.
	srv.Checker.WarmTrace(sess.Trace())
	if reused := srv.mFactReused.Value(); reused == 0 {
		t.Fatal("workload derived too little to compare: no entry reused")
	}
	if got, want := srv.mFactTrans.Value(), int64(sess.Trace().Len()); got != want {
		t.Fatalf("server fact-cache total translated = %d, the shared trace holds %d entries", got, want)
	}
}

// TestUnhelloedSessionIsWindowed: a session that never says hello
// still gets its trace from the server's one constructor, so the
// history window bounds it.
func TestUnhelloedSessionIsWindowed(t *testing.T) {
	srv := testServer(t, Enforce)
	srv.HistoryWindow = 2
	sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)})
	for i := 0; i < 4; i++ {
		r := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}, sess)
		if !r.OK || r.Blocked {
			t.Fatalf("query %d: %+v", i, r)
		}
	}
	if n := sess.Trace().Len(); n != 2 {
		t.Fatalf("trace holds %d entries, want the window's 2", n)
	}
}
