package proxy

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sqlvalue"
)

// TestWriteRetiresTraceFacts: a write retires the trace facts it may
// have falsified. On Example 2.1's views, a session that saw user 1
// attend event 2 keeps that fact only until a write to Attendance.
// After another session deletes the attendance row and retitles the
// event, the old session is blocked as a fresh one is, where it used to
// read the new title of an event user 1 no longer attends. A write to a
// table no fact mentions retires nothing.
func TestWriteRetiresTraceFacts(t *testing.T) {
	srv := testServer(t, Enforce)
	ctx := context.Background()
	user := func(uid int64) *Session {
		return NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(uid)})
	}
	run := func(sess *Session, op, sql string) Response {
		t.Helper()
		resp := srv.HandleInCtx(ctx, &Request{Op: op, SQL: sql}, sess)
		if resp.Error != "" {
			t.Fatalf("%s: %s", sql, resp.Error)
		}
		return resp
	}
	const (
		probe = "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"
		event = "SELECT * FROM Events WHERE EId=2"
	)
	old, other := user(1), user(2)
	if resp := run(old, "query", probe); resp.Blocked || len(resp.Rows) != 1 {
		t.Fatalf("probe: %+v, want one row", resp)
	}
	if resp := run(old, "query", event); resp.Blocked {
		t.Fatalf("event 2 after the probe: %+v, want allowed", resp)
	}
	run(other, "exec", "UPDATE Users SET Name = 'robert' WHERE UId = 2")
	if resp := run(old, "query", event); resp.Blocked {
		t.Fatalf("event 2 after a write to Users: %+v, want allowed", resp)
	}

	run(other, "exec", "DELETE FROM Attendance WHERE UId = 1 AND EId = 2")
	run(other, "exec", "UPDATE Events SET Title = 'layoffs' WHERE EId = 2")
	if resp := run(user(1), "query", event); !resp.Blocked {
		t.Fatalf("fresh session: %+v, want blocked", resp)
	}
	if resp := run(old, "query", event); !resp.Blocked {
		t.Fatalf("old session after the writes: allowed %v, want blocked", fmt.Sprint(resp.Rows))
	}
	if resp := run(old, "query", probe); resp.Blocked || len(resp.Rows) != 0 {
		t.Fatalf("probe again: %+v, want no row", resp)
	}
	if resp := run(old, "query", event); !resp.Blocked {
		t.Fatalf("old session after probing again: allowed %v, want blocked", fmt.Sprint(resp.Rows))
	}
}
