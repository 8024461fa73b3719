package proxy_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/durable"
	"repro/internal/pgwire"
	"repro/internal/proxy"
	"repro/internal/trace"
)

// TestRangeReadKeepsNoRows: an answer whose statement derives no fact
// from its rows is recorded by its row count alone, on either ingress.
// Thirty-two range reads of 500 forum posts leave no row in the
// session's trace — asked in process, and over the Postgres wire, where
// the rows stream from the engine's scan into DataRow frames — while
// the entries' omitted counts add up to every row returned; a calendar
// read, whose rows are facts, keeps them on both.
func TestRangeReadKeepsNoRows(t *testing.T) {
	forum, err := apps.ByName("forum")
	if err != nil {
		t.Fatal(err)
	}
	cal, err := apps.ByName("calendar")
	if err != nil {
		t.Fatal(err)
	}
	const rangeRead = "SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= ? AND PId < ?"
	for _, ingress := range []string{"in-process", "pg"} {
		srv := proxy.NewServer(forum.MustNewDB(600), checker.New(forum.Policy()), proxy.Enforce)
		read, entries := openIngress(t, ingress, srv, forum, 2)
		returned := 0
		for i := 0; i < 32; i++ {
			lo := 1 + 2*(i%4)
			n := read(rangeRead, lo, lo+1000)
			if n != 500 {
				t.Fatalf("%s: range read %d returned %d rows, want 500", ingress, i, n)
			}
			returned += n
		}
		es := entries()
		kept, omitted := 0, 0
		for _, e := range es {
			kept += len(e.Rows)
			omitted += e.Omitted
		}
		if len(es) != 32 || kept != 0 || omitted != returned {
			t.Fatalf("%s: %d entries keep %d rows and omit %d; want 32 entries, 0 rows, %d omitted", ingress, len(es), kept, omitted, returned)
		}

		srv = proxy.NewServer(cal.MustNewDB(20), checker.New(cal.Policy()), proxy.Enforce)
		read, entries = openIngress(t, ingress, srv, cal, 1)
		n := read("SELECT EId FROM Attendance WHERE UId = ?", 1)
		if es = entries(); n == 0 || len(es) != 1 || len(es[0].Rows) != n || es[0].Omitted != 0 {
			t.Fatalf("%s: calendar read of %d rows recorded %+v; want its rows kept", ingress, n, es)
		}
	}
}

// openIngress opens a session for fixture f's principal uid on srv
// through the named ingress. read runs a statement there, its ?
// placeholders filled with args, and returns the number of rows that
// answered it; entries snapshots the session's trace. Over pg the
// session is durable, so the WAL manager, which shares its trace,
// shows it to the test.
func openIngress(t *testing.T, ingress string, srv *proxy.Server, f *apps.Fixture, uid int64) (read func(sql string, args ...any) int, entries func() []trace.Entry) {
	t.Helper()
	if ingress == "in-process" {
		t.Cleanup(func() { srv.Close() })
		sess := proxy.NewSession(f.Session(uid))
		read = func(sql string, args ...any) int {
			r := srv.HandleInCtx(context.Background(), &proxy.Request{Op: "query", SQL: sql, Args: args}, sess)
			if !r.OK || r.Blocked {
				t.Fatalf("%s: %s %s", sql, r.Error, r.Reason)
			}
			return len(r.Rows)
		}
		return read, func() []trace.Entry { es, _ := sess.Trace().SnapshotState(); return es }
	}

	srv.WALDir, srv.WALOpts.Fsync = t.TempDir(), durable.FsyncOff
	addr, err := srv.ListenIngress("127.0.0.1:0", pgwire.NewServer(srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	body := binary.BigEndian.AppendUint32(nil, 196608)
	body = fmt.Appendf(body, "session\x00s\x00attr.MyUId\x00%d\x00\x00", uid)
	send := func(msg []byte) {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	send(append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+4)), body...))
	// rows reads the replies through ReadyForQuery and counts the
	// DataRows; an ErrorResponse fails the test.
	rows := func() int {
		n := 0
		for {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			var hdr [5]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[1:])-4)
			if _, err := io.ReadFull(c, payload); err != nil {
				t.Fatal(err)
			}
			switch hdr[0] {
			case 'E':
				t.Fatalf("pg error: %q", payload)
			case 'D':
				n++
			case 'Z':
				return n
			}
		}
	}
	rows()
	read = func(sql string, args ...any) int {
		for _, a := range args {
			sql = strings.Replace(sql, "?", fmt.Sprint(a), 1)
		}
		q := append([]byte{'Q'}, binary.BigEndian.AppendUint32(nil, uint32(len(sql)+5))...)
		send(append(append(q, sql...), 0))
		return rows()
	}
	return read, func() []trace.Entry {
		tr, _, err := srv.Durable().Session("s", f.Session(uid))
		if err != nil {
			t.Fatal(err)
		}
		es, _ := tr.SnapshotState()
		return es
	}
}
