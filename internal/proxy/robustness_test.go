package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/acerr"
)

// TestConcurrentClients drives many sessions in parallel against one
// server; per-connection histories must not interfere (run with -race
// in CI).
func TestConcurrentClients(t *testing.T) {
	srv := testServer(t, Enforce)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(uid int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Hello(context.Background(), map[string]any{"MyUId": uid}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				rows, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?", uid)
				if err != nil {
					errs <- fmt.Errorf("uid %d: %w", uid, err)
					return
				}
				_ = rows
				// Cross-user access must block on every iteration.
				if _, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?", uid+1); err == nil {
					errs <- fmt.Errorf("uid %d: cross-user query was not blocked", uid)
					return
				}
			}
		}(g%2 + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMalformedRequests: garbage lines get error responses and the
// connection keeps serving.
func TestMalformedRequests(t *testing.T) {
	srv := testServer(t, Enforce)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(line string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		raw, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
		return resp
	}

	if resp := send("this is not json"); resp.Error == "" {
		t.Fatal("garbage line should produce an error response")
	}
	// An old peer's cluster.* op is one more unknown op.
	for _, line := range []string{`{"op":"frobnicate"}`, `{"op":"cluster.status"}`} {
		if resp := send(line); resp.Error == "" || resp.Code != acerr.CodeBadRequest {
			t.Fatalf("unknown op %s: %+v", line, resp)
		}
	}
	if resp := send(`{"op":"query","sql":"SELECT FROM"}`); resp.Error == "" {
		t.Fatal("parse error should surface")
	}
	// Still alive afterwards.
	if resp := send(`{"op":"hello","session":{"MyUId":1}}`); !resp.OK {
		t.Fatalf("hello after errors: %+v", resp)
	}
	if resp := send(`{"op":"query","sql":"SELECT EId FROM Attendance WHERE UId = 1"}`); !resp.OK || resp.Blocked {
		t.Fatalf("query after errors: %+v", resp)
	}
}

// TestLargeResultOverWire: a result bigger than the default scanner
// buffer round-trips.
func TestLargeResultOverWire(t *testing.T) {
	srv := testServer(t, Off)
	// Seed many rows with long text.
	long := strings.Repeat("x", 2048)
	for i := 10; i < 200; i++ {
		srv.DB.MustExec("INSERT INTO Events (EId, Title, Notes) VALUES (?, ?, ?)", i, long, long)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	rows, err := cl.Query(context.Background(), "SELECT * FROM Events")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) < 190 {
		t.Fatalf("large result truncated: %d rows", len(rows.Rows))
	}
	if rows.Rows[len(rows.Rows)-1][1].Text() != long {
		t.Fatal("long text corrupted over the wire")
	}
}

// TestSessionAttributeTypes: non-integer session attributes survive
// the JSON round trip with correct types.
func TestSessionAttributeTypes(t *testing.T) {
	srv := testServer(t, Enforce)
	sess := NewSession(nil)
	resp := srv.HandleInCtx(context.Background(), &Request{Op: "hello", Session: map[string]any{
		"MyUId": 3, "MyRole": "admin", "MyScore": 1.5,
	}}, sess)
	if !resp.OK {
		t.Fatalf("hello: %+v", resp)
	}
	attrs := sess.inner.attrs
	if attrs["MyUId"].Int() != 3 {
		t.Errorf("int attr: %v", attrs["MyUId"])
	}
	if attrs["MyRole"].Text() != "admin" {
		t.Errorf("text attr: %v", attrs["MyRole"])
	}
	if attrs["MyScore"].Real() != 1.5 {
		t.Errorf("real attr: %v", attrs["MyScore"])
	}
}
