package pgwire

import (
	"context"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/proxy"
)

// scriptConn is a netConn driven by the test: Read hands out the chunks
// sent on in and signals idle each time the server has consumed every
// chunk and would block on the client; Write appends to out and counts
// the writes. Once out has grown, neither side allocates, so an
// exchange's allocations are the server's. The channels order every
// access to out and writes: the server only writes between a chunk on
// in and the next idle.
type scriptConn struct {
	in      chan []byte
	idle    chan struct{}
	pending []byte

	out       []byte
	writes    int
	deadlines int // SetDeadline calls
}

func (s *scriptConn) Read(p []byte) (int, error) {
	if len(s.pending) == 0 {
		s.idle <- struct{}{}
		b, ok := <-s.in
		if !ok {
			return 0, io.EOF
		}
		s.pending = b
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error) {
	s.out = append(s.out, p...)
	s.writes++
	return len(p), nil
}

func (s *scriptConn) SetDeadline(time.Time) error {
	s.deadlines++
	return nil
}

// send hands the server one chunk of frontend messages and waits until
// it would block on the client again, allocating nothing itself.
func (s *scriptConn) send(chunk []byte) {
	s.out, s.writes = s.out[:0], 0
	s.in <- chunk
	<-s.idle
}

// exchange is send with a deadline: it returns the bytes the server
// wrote meanwhile and in how many writes.
func (s *scriptConn) exchange(t *testing.T, chunk []byte) ([]byte, int) {
	t.Helper()
	s.out, s.writes = s.out[:0], 0
	s.in <- chunk
	select {
	case <-s.idle:
	case <-time.After(5 * time.Second):
		t.Fatal("server never returned to reading")
	}
	return s.out, s.writes
}

// frontend frames one frontend message.
func frontend(typ byte, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(payload)+4))
	return append(b, payload...)
}

// serveScripted serves one connection to px over a scriptConn through
// startup with the given parameters ("key\x00value\x00" pairs).
func serveScripted(t *testing.T, px *proxy.Server, params string) (*scriptConn, *conn) {
	t.Helper()
	sc := &scriptConn{in: make(chan []byte), idle: make(chan struct{}, 1)}
	c := &conn{srv: NewServer(px), netc: sc, pid: 1, secret: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve(context.Background())
	}()
	t.Cleanup(func() {
		close(sc.in)
		<-done
		px.Close()
	})
	<-sc.idle
	startup := binary.BigEndian.AppendUint32(nil, protoV3)
	startup = append(startup, params+"\x00"...)
	sc.exchange(t, append(binary.BigEndian.AppendUint32(nil, uint32(len(startup)+4)), startup...))
	return sc, c
}

// startScripted serves one connection over a scriptConn through startup
// and the Parse of an allowed one-row read as the unnamed statement.
func startScripted(t *testing.T) *scriptConn {
	t.Helper()
	sc, _ := serveScripted(t, testProxy(t, proxy.Enforce), "attr.MyUId\x001\x00")
	parse := frontend('P', append([]byte("\x00SELECT EId FROM Attendance WHERE UId = 1\x00"), 0, 0))
	sc.exchange(t, append(parse, frontend('S', nil)...))
	return sc
}

// bindExecute is a Bind of the unnamed statement with no parameters and
// an Execute of the unnamed portal.
func bindExecute() []byte {
	b := frontend('B', []byte{0, 0, 0, 0, 0, 0, 0, 0})
	return append(b, frontend('E', []byte{0, 0, 0, 0, 0})...)
}

// TestExchangeIsOneWrite pins the flush rule: a Bind/Execute/Sync
// exchange reaches the client in exactly one write, holding every reply
// through ReadyForQuery — for a one-row read, and for pg_scan's range
// reads of 50, 200 and 500 rows, which the connection frames into the
// same buffer as the rest of the exchange.
func TestExchangeIsOneWrite(t *testing.T) {
	sc := startScripted(t)
	out, writes := sc.exchange(t, append(bindExecute(), frontend('S', nil)...))
	if writes != 1 {
		t.Fatalf("Bind/Execute/Sync issued %d writes, want 1", writes)
	}
	msgs := backendMsgs(t, out)
	if got := msgTypes(msgs); got != "2DCZ" {
		t.Fatalf("replies %q, want BindComplete, DataRow, CommandComplete, ReadyForQuery", got)
	}

	sc, _ = servePostsRange(t, forumProxy(t, proxy.Enforce, 1000))
	for _, rows := range []int{50, 200, 500} {
		out, writes := sc.exchange(t, postsRange(rows))
		want := "2" + strings.Repeat("D", rows) + "CZ"
		if got := msgTypes(backendMsgs(t, out)); writes != 1 || got != want {
			t.Errorf("%d-row read: %d writes of %d replies %.8q..., want 1 write of BindComplete, %d DataRows, CommandComplete, ReadyForQuery",
				rows, writes, len(got), got, rows)
		}
	}
}

// TestDeadlineOnlyWithReadTimeout: with ReadTimeout 0 the read side
// sets no deadline; with it set, it renews the deadline before each
// kernel read, and an exchange still leaves in one write.
func TestDeadlineOnlyWithReadTimeout(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		px := testProxy(t, proxy.Enforce)
		px.ReadTimeout = timeout
		sc, _ := serveScripted(t, px, "attr.MyUId\x001\x00")
		parse := frontend('P', append([]byte("\x00SELECT EId FROM Attendance WHERE UId = 1\x00"), 0, 0))
		if _, writes := sc.exchange(t, append(append(parse, bindExecute()...), frontend('S', nil)...)); writes != 1 {
			t.Errorf("ReadTimeout %v: Parse/Bind/Execute/Sync issued %d writes, want 1", timeout, writes)
		}
		const reads = 3 // for the startup, for the exchange, and waiting after it
		want := 0
		if timeout > 0 {
			want = reads
		}
		if sc.deadlines != want {
			t.Errorf("ReadTimeout %v: %d SetDeadline calls over %d kernel reads, want %d", timeout, sc.deadlines, reads, want)
		}
	}
}

// TestSimpleQueryErrorKeepsEarlierReplies: in one simple Query, a
// statement that is blocked, or whose evaluation fails, answers with an
// ErrorResponse and no DataRow, and the statement before it keeps its
// replies, all in the exchange's one write. (A read canceled while its
// rows are framed takes them back too: TestStreamedReadCanceled.)
func TestSimpleQueryErrorKeepsEarlierReplies(t *testing.T) {
	sc, _ := serveScripted(t, testProxy(t, proxy.Enforce), "attr.MyUId\x001\x00")
	out, writes := sc.exchange(t, frontend('Q', []byte(
		"SELECT EId FROM Attendance WHERE UId = 1; SELECT * FROM Events WHERE EId = 3\x00")))
	msgs := backendMsgs(t, out)
	if got := msgTypes(msgs); writes != 1 || got != "TDCEZ" {
		t.Fatalf("%d writes of %q, want 1 write of the first statement's RowDescription, DataRow, CommandComplete, then ErrorResponse, ReadyForQuery", writes, got)
	}
	if got := dataRowValues(t, msgs[1]); len(got) != 1 || got[0] != "2" {
		t.Fatalf("first statement's row %v, want [2]", got)
	}
	wantSQLState(t, msgs, "42501")

	sc, _ = serveScripted(t, padProxy(t, 100, 10), "")
	out, _ = sc.exchange(t, frontend('Q', []byte(
		"SELECT N FROM Big WHERE N < 3; SELECT N FROM Big WHERE N >= 0 AND N > (SELECT N FROM Big WHERE N >= 0)\x00")))
	msgs = backendMsgs(t, out)
	if got := msgTypes(msgs); got != "TDDDCEZ" {
		t.Fatalf("replies %q, want the first read's 3 rows, then ErrorResponse, ReadyForQuery", got)
	}
	wantOwnRows(t, append(msgs[:5:5], msgs[6]))
	wantSQLState(t, msgs, "XX000")
}

// TestOutputCapacityKept: a read whose replies outgrow rowsKeep leaves
// in one write, and the connection then keeps at most rowsKeep of output
// capacity.
func TestOutputCapacityKept(t *testing.T) {
	const rows = 2000
	sc, c := servePostsRange(t, forumProxy(t, proxy.Enforce, 500+rows))
	out, writes := sc.exchange(t, postsRange(rows))
	if len(out) <= rowsKeep || writes != 1 || countMsgs(backendMsgs(t, out), 'D') != rows {
		t.Fatalf("%d-row read: %d bytes in %d writes, want more than %d in 1", rows, len(out), writes, rowsKeep)
	}
	if n := cap(c.out); n > rowsKeep {
		t.Fatalf("connection keeps %d bytes of output capacity, want at most %d", n, rowsKeep)
	}
}

// TestFlushMessageDeliversRows pins that an Execute followed by Flush
// ('H') and no Sync still gets its rows onto the wire before the server
// waits on the client.
func TestFlushMessageDeliversRows(t *testing.T) {
	sc := startScripted(t)
	out, _ := sc.exchange(t, append(bindExecute(), frontend('H', nil)...))
	if got := msgTypes(backendMsgs(t, out)); got != "2DC" {
		t.Fatalf("replies before the server blocked: %q, want BindComplete, DataRow, CommandComplete", got)
	}
}

// backendMsgs splits a backend byte stream into messages.
func backendMsgs(t *testing.T, b []byte) []backendMsg {
	t.Helper()
	var out []backendMsg
	for len(b) > 0 {
		if len(b) < 5 {
			t.Fatalf("torn message header %x", b)
		}
		n := int(binary.BigEndian.Uint32(b[1:5])) + 1
		if n > len(b) {
			t.Fatalf("torn message %x", b)
		}
		out = append(out, backendMsg{typ: b[0], payload: b[5:n]})
		b = b[n:]
	}
	return out
}
