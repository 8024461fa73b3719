package pgwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/acerr"
	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

func testProxy(t *testing.T, mode proxy.Mode) *proxy.Server {
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
	return proxy.NewServer(db, checker.New(pol), mode)
}

// listen serves the Postgres wire protocol for px on a free port.
func listen(t *testing.T, px *proxy.Server) string {
	t.Helper()
	addr, err := px.ListenIngress("127.0.0.1:0", NewServer(px))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	return addr
}

// --- Raw-socket test client ---

// pgConn is a minimal frontend for conformance testing: it speaks the
// v3 protocol directly over a TCP socket so the listener is exercised
// exactly as a stock client would, with no shared code.
type pgConn struct {
	t *testing.T
	c net.Conn
	r io.Reader

	pid, secret int32
}

// backendMsg is one received backend message.
type backendMsg struct {
	typ     byte
	payload []byte
}

func dialPg(t *testing.T, addr string, params map[string]string) *pgConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	pc := &pgConn{t: t, c: c, r: c}
	pc.sendStartup(params)
	msgs := pc.readUntilReady()
	for _, m := range msgs {
		if m.typ == 'E' {
			t.Fatalf("startup failed: %v", errorFields(m.payload))
		}
		if m.typ == 'K' {
			pc.pid = int32(binary.BigEndian.Uint32(m.payload[0:4]))
			pc.secret = int32(binary.BigEndian.Uint32(m.payload[4:8]))
		}
	}
	return pc
}

func (pc *pgConn) sendStartup(params map[string]string) {
	var body []byte
	body = binary.BigEndian.AppendUint32(body, protoV3)
	for k, v := range params {
		body = append(append(body, k...), 0)
		body = append(append(body, v...), 0)
	}
	body = append(body, 0)
	var msg []byte
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(body)+4))
	msg = append(msg, body...)
	if _, err := pc.c.Write(msg); err != nil {
		pc.t.Fatal(err)
	}
}

func (pc *pgConn) send(typ byte, payload []byte) {
	msg := make([]byte, 0, len(payload)+5)
	msg = append(msg, typ)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(payload)+4))
	msg = append(msg, payload...)
	if _, err := pc.c.Write(msg); err != nil {
		pc.t.Fatal(err)
	}
}

func (pc *pgConn) read() backendMsg {
	pc.t.Helper()
	pc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [5]byte
	if _, err := io.ReadFull(pc.r, hdr[:]); err != nil {
		pc.t.Fatalf("read header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	payload := make([]byte, n-4)
	if _, err := io.ReadFull(pc.r, payload); err != nil {
		pc.t.Fatalf("read payload: %v", err)
	}
	return backendMsg{typ: hdr[0], payload: payload}
}

// readUntilReady collects messages through the next ReadyForQuery.
func (pc *pgConn) readUntilReady() []backendMsg {
	pc.t.Helper()
	var out []backendMsg
	for {
		m := pc.read()
		out = append(out, m)
		if m.typ == 'Z' {
			return out
		}
	}
}

func (pc *pgConn) query(sql string) []backendMsg {
	pc.t.Helper()
	pc.send('Q', append([]byte(sql), 0))
	return pc.readUntilReady()
}

// parseBindExecute drives one extended-protocol round trip on the
// unnamed statement/portal and returns everything through
// ReadyForQuery.
func (pc *pgConn) parseBindExecute(sql string, args ...string) []backendMsg {
	pc.t.Helper()
	pc.sendParse("", sql, nil)
	pc.sendBind("", "", args)
	pc.sendDescribe('P', "")
	pc.sendExecute("", 0)
	pc.sendSync()
	return pc.readUntilReady()
}

func (pc *pgConn) sendParse(name, sql string, oids []int32) {
	var b []byte
	b = append(append(b, name...), 0)
	b = append(append(b, sql...), 0)
	b = binary.BigEndian.AppendUint16(b, uint16(len(oids)))
	for _, o := range oids {
		b = binary.BigEndian.AppendUint32(b, uint32(o))
	}
	pc.send('P', b)
}

func (pc *pgConn) sendBind(portal, stmt string, args []string) {
	var b []byte
	b = append(append(b, portal...), 0)
	b = append(append(b, stmt...), 0)
	b = binary.BigEndian.AppendUint16(b, 0) // all-text param formats
	b = binary.BigEndian.AppendUint16(b, uint16(len(args)))
	for _, a := range args {
		b = binary.BigEndian.AppendUint32(b, uint32(len(a)))
		b = append(b, a...)
	}
	b = binary.BigEndian.AppendUint16(b, 0) // all-text result formats
	pc.send('B', b)
}

func (pc *pgConn) sendDescribe(kind byte, name string) {
	b := append([]byte{kind}, name...)
	pc.send('D', append(b, 0))
}

func (pc *pgConn) sendExecute(portal string, maxRows int32) {
	b := append([]byte(portal), 0)
	b = binary.BigEndian.AppendUint32(b, uint32(maxRows))
	pc.send('E', b)
}

func (pc *pgConn) sendSync() { pc.send('S', nil) }

func (pc *pgConn) sendClose(kind byte, name string) {
	b := append([]byte{kind}, name...)
	pc.send('C', append(b, 0))
}

// cancelVia opens a second connection and issues a CancelRequest with
// this connection's BackendKeyData.
func (pc *pgConn) cancelVia(addr string) {
	pc.t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		pc.t.Fatal(err)
	}
	defer c.Close()
	var b []byte
	b = binary.BigEndian.AppendUint32(b, 16)
	b = binary.BigEndian.AppendUint32(b, cancelCode)
	b = binary.BigEndian.AppendUint32(b, uint32(pc.pid))
	b = binary.BigEndian.AppendUint32(b, uint32(pc.secret))
	if _, err := c.Write(b); err != nil {
		pc.t.Fatal(err)
	}
}

// --- Assertion helpers ---

func errorFields(payload []byte) map[byte]string {
	out := make(map[byte]string)
	for len(payload) > 0 && payload[0] != 0 {
		code := payload[0]
		payload = payload[1:]
		i := 0
		for i < len(payload) && payload[i] != 0 {
			i++
		}
		out[code] = string(payload[:i])
		if i+1 <= len(payload) {
			payload = payload[i+1:]
		}
	}
	return out
}

func findMsg(msgs []backendMsg, typ byte) *backendMsg {
	for i := range msgs {
		if msgs[i].typ == typ {
			return &msgs[i]
		}
	}
	return nil
}

func countMsgs(msgs []backendMsg, typ byte) int {
	n := 0
	for _, m := range msgs {
		if m.typ == typ {
			n++
		}
	}
	return n
}

func wantSQLState(t *testing.T, msgs []backendMsg, state string) map[byte]string {
	t.Helper()
	e := findMsg(msgs, 'E')
	if e == nil {
		t.Fatalf("no ErrorResponse in %s", msgTypes(msgs))
	}
	f := errorFields(e.payload)
	if f['C'] != state {
		t.Fatalf("SQLSTATE = %q (%q), want %q", f['C'], f['M'], state)
	}
	return f
}

func wantCommandTag(t *testing.T, msgs []backendMsg, tag string) {
	t.Helper()
	c := findMsg(msgs, 'C')
	if c == nil {
		t.Fatalf("no CommandComplete in %s", msgTypes(msgs))
	}
	got := strings.TrimRight(string(c.payload), "\x00")
	if got != tag {
		t.Fatalf("command tag = %q, want %q", got, tag)
	}
}

func txStatus(t *testing.T, msgs []backendMsg) byte {
	t.Helper()
	z := findMsg(msgs, 'Z')
	if z == nil || len(z.payload) != 1 {
		t.Fatalf("no ReadyForQuery in %s", msgTypes(msgs))
	}
	return z.payload[0]
}

func msgTypes(msgs []backendMsg) string {
	var b strings.Builder
	for _, m := range msgs {
		b.WriteByte(m.typ)
	}
	return b.String()
}

// dataRowValues decodes a text-format DataRow.
func dataRowValues(t *testing.T, m backendMsg) []string {
	t.Helper()
	p := payloadReader{b: m.payload}
	n, err := p.int16()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		ln, err := p.int32()
		if err != nil {
			t.Fatal(err)
		}
		if ln < 0 {
			out[i] = "<NULL>"
			continue
		}
		raw, err := p.take(int(ln))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(raw)
	}
	return out
}

// --- Conformance tests ---

func TestSimpleQueryFlow(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"user": "alice", "attr.MyUId": "1"})

	// Allowed SELECT: RowDescription + one DataRow + tag + 'I'.
	msgs := pc.query("SELECT EId FROM Attendance WHERE UId = 1")
	if findMsg(msgs, 'T') == nil {
		t.Fatalf("no RowDescription in %s", msgTypes(msgs))
	}
	if n := countMsgs(msgs, 'D'); n != 1 {
		t.Fatalf("got %d DataRows, want 1", n)
	}
	if got := dataRowValues(t, *findMsg(msgs, 'D')); len(got) != 1 || got[0] != "2" {
		t.Fatalf("row = %v, want [2]", got)
	}
	wantCommandTag(t, msgs, "SELECT 1")
	if s := txStatus(t, msgs); s != 'I' {
		t.Fatalf("status = %c, want I", s)
	}

	// Blocked SELECT: insufficient_privilege with the policy reason.
	f := wantSQLState(t, pc.query("SELECT * FROM Events WHERE EId=3"), SQLStateBlockedWire)
	if !strings.Contains(f['M'], "blocked by policy") {
		t.Fatalf("blocked message = %q", f['M'])
	}

	// A parenthesized read has no leading keyword: its parse makes it a
	// read, decided and answered as one.
	msgs = pc.query("(SELECT EId FROM Attendance WHERE UId = 1)")
	if findMsg(msgs, 'T') == nil || countMsgs(msgs, 'D') != 1 {
		t.Fatalf("parenthesized read: %s, want RowDescription and 1 DataRow", msgTypes(msgs))
	}
	wantCommandTag(t, msgs, "SELECT 1")
	wantSQLState(t, pc.query("(SELECT * FROM Events WHERE EId = 3)"), SQLStateBlockedWire)

	// Writes pass through as exec.
	wantCommandTag(t, pc.query("INSERT INTO Attendance (UId, EId) VALUES (1, 3)"), "INSERT 0 1")

	// Multi-statement buffer: both results, one ReadyForQuery.
	msgs = pc.query("SELECT EId FROM Attendance WHERE UId = 1; SELECT EId FROM Attendance WHERE UId = 1")
	if n := countMsgs(msgs, 'C'); n != 2 {
		t.Fatalf("got %d CommandCompletes, want 2 (%s)", n, msgTypes(msgs))
	}
	if n := countMsgs(msgs, 'Z'); n != 1 {
		t.Fatalf("got %d ReadyForQuery, want 1", n)
	}

	// Empty query.
	msgs = pc.query("  ;  ")
	if findMsg(msgs, 'I') == nil {
		t.Fatalf("no EmptyQueryResponse in %s", msgTypes(msgs))
	}

	// Parse error carries syntax_error.
	wantSQLState(t, pc.query("SELEKT 1"), "42601")
}

// SQLStateBlockedWire mirrors acerr.SQLStateBlocked without importing
// it here, so a silent change to the constant breaks this conformance
// suite loudly.
const SQLStateBlockedWire = "42501"

func TestExtendedProtocol(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})

	msgs := pc.parseBindExecute("SELECT EId FROM Attendance WHERE UId = $1", "1")
	for _, typ := range []byte{'1', '2', 'T', 'D', 'C', 'Z'} {
		if findMsg(msgs, typ) == nil {
			t.Fatalf("missing %c in %s", typ, msgTypes(msgs))
		}
	}
	if got := dataRowValues(t, *findMsg(msgs, 'D')); len(got) != 1 || got[0] != "2" {
		t.Fatalf("row = %v, want [2]", got)
	}
	wantCommandTag(t, msgs, "SELECT 1")

	// Named prepared statement, Describe on the statement, repeated
	// Bind/Execute without re-Parse.
	pc.sendParse("getname", "SELECT EId FROM Attendance WHERE UId = $1", []int32{oidInt8})
	pc.sendDescribe('S', "getname")
	pc.sendSync()
	msgs = pc.readUntilReady()
	if findMsg(msgs, '1') == nil || findMsg(msgs, 't') == nil || findMsg(msgs, 'T') == nil {
		t.Fatalf("Describe(stmt) flow: %s", msgTypes(msgs))
	}
	pd := findMsg(msgs, 't')
	if n := binary.BigEndian.Uint16(pd.payload[:2]); n != 1 {
		t.Fatalf("ParameterDescription count = %d, want 1", n)
	}
	if oid := binary.BigEndian.Uint32(pd.payload[2:6]); oid != oidInt8 {
		t.Fatalf("ParameterDescription OID = %d, want %d", oid, oidInt8)
	}
	for round := 0; round < 2; round++ {
		pc.sendBind("", "getname", []string{"1"})
		pc.sendExecute("", 0)
		pc.sendSync()
		msgs = pc.readUntilReady()
		if findMsg(msgs, 'D') == nil {
			t.Fatalf("round %d: no DataRow in %s", round, msgTypes(msgs))
		}
	}

	// The lexer reads ?-style placeholders too: a v2-flavoured spelling
	// works over pgwire.
	msgs = pc.parseBindExecute("SELECT EId FROM Attendance WHERE UId = ?", "1")
	wantCommandTag(t, msgs, "SELECT 1")

	// A parenthesized read is decided and answered as a read here too.
	msgs = pc.parseBindExecute("(SELECT EId FROM Attendance WHERE UId = $1)", "1")
	if d := findMsg(msgs, 'D'); d == nil || strings.Join(dataRowValues(t, *d), ",") != "2" {
		t.Fatalf("parenthesized read: %s, want the DataRow [2]", msgTypes(msgs))
	}
	wantCommandTag(t, msgs, "SELECT 1")
	wantSQLState(t, pc.parseBindExecute("(SELECT * FROM Events WHERE EId = $1)", "3"), SQLStateBlockedWire)

	// Parse-time syntax error, then skip-till-Sync: the queued Bind
	// and Execute must be discarded, not answered.
	pc.sendParse("", "SELEKT oops", nil)
	pc.sendBind("", "", nil)
	pc.sendExecute("", 0)
	pc.sendSync()
	msgs = pc.readUntilReady()
	wantSQLState(t, msgs, "42601")
	if findMsg(msgs, '2') != nil || findMsg(msgs, 'C') != nil {
		t.Fatalf("messages after error were answered: %s", msgTypes(msgs))
	}

	// Binary parameter format is rejected as feature_not_supported.
	var b []byte
	b = append(b, 0) // portal ""
	b = append(b, "getname"...)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint16(b, 1) // format 1 = binary
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = append(b, '1')
	b = binary.BigEndian.AppendUint16(b, 0)
	pc.send('B', b)
	pc.sendSync()
	wantSQLState(t, pc.readUntilReady(), "0A000")
}

// TestDescribeMatchesSimpleProtocol pins Describe's RowDescription to
// the one the simple protocol sends with the same statement's rows, on
// Describe of the statement and of the portal: a star expands to the
// table's columns — over a join, to both tables' — an alias names its
// column, an aggregate its expression, and a UNION its first arm. A
// client such as libpq rejects a DataRow whose cell count differs from
// the RowDescription it was given.
func TestDescribeMatchesSimpleProtocol(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.LogOnly))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	for _, c := range []struct{ sql, arg string }{
		{"SELECT * FROM Events WHERE EId = $1", "2"},
		{"SELECT e.* FROM Events e WHERE e.EId = $1", "2"},
		{"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = $1", "1"},
		{"SELECT Title AS name, EId FROM Events WHERE EId = $1", "2"},
		{"SELECT COUNT(*) FROM Attendance WHERE UId = $1", "1"},
		{"SELECT EId FROM Attendance WHERE UId = $1 UNION SELECT EId FROM Events WHERE EId = 3", "1"},
	} {
		simple := pc.query(strings.Replace(c.sql, "$1", c.arg, 1))
		want := findMsg(simple, 'T')
		if want == nil {
			t.Fatalf("%s: no RowDescription in %s", c.sql, msgTypes(simple))
		}
		pc.sendParse("d", c.sql, nil)
		pc.sendDescribe('S', "d")
		pc.sendBind("", "d", []string{c.arg})
		pc.sendDescribe('P', "")
		pc.sendExecute("", 0)
		pc.sendSync()
		msgs := pc.readUntilReady()
		if got := msgTypes(msgs); !strings.HasPrefix(got, "1tT2T") || countMsgs(msgs, 'D') != countMsgs(simple, 'D') {
			t.Fatalf("%s: extended flow %s, simple %s", c.sql, got, msgTypes(simple))
		}
		fields := int(binary.BigEndian.Uint16(want.payload))
		for _, m := range msgs {
			switch m.typ {
			case 'T':
				if string(m.payload) != string(want.payload) {
					t.Errorf("%s: Describe announces %q, the simple protocol %q", c.sql, m.payload, want.payload)
				}
			case 'D':
				if n := len(dataRowValues(t, m)); n != fields {
					t.Errorf("%s: DataRow of %d fields under a RowDescription of %d", c.sql, n, fields)
				}
			}
		}
		pc.sendClose('S', "d")
		pc.sendSync()
		pc.readUntilReady()
	}
}

func TestMidTransactionBlock(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})

	msgs := pc.query("BEGIN")
	wantCommandTag(t, msgs, "BEGIN")
	if s := txStatus(t, msgs); s != 'T' {
		t.Fatalf("after BEGIN: status %c, want T", s)
	}

	// Allowed query inside the transaction.
	msgs = pc.query("SELECT EId FROM Attendance WHERE UId = 1")
	if s := txStatus(t, msgs); s != 'T' {
		t.Fatalf("after allowed query: status %c, want T", s)
	}

	// Policy block mid-transaction poisons the block.
	msgs = pc.query("SELECT * FROM Events WHERE EId=3")
	wantSQLState(t, msgs, SQLStateBlockedWire)
	if s := txStatus(t, msgs); s != 'E' {
		t.Fatalf("after block: status %c, want E", s)
	}

	// Subsequent statements are refused until rollback.
	msgs = pc.query("SELECT EId FROM Attendance WHERE UId = 1")
	wantSQLState(t, msgs, "25P02")

	// COMMIT of a failed transaction reports ROLLBACK.
	msgs = pc.query("COMMIT")
	wantCommandTag(t, msgs, "ROLLBACK")
	if s := txStatus(t, msgs); s != 'I' {
		t.Fatalf("after COMMIT: status %c, want I", s)
	}

	// Connection usable again.
	wantCommandTag(t, pc.query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
}

func TestCancelRequest(t *testing.T) {
	// LogOnly: the decision is recorded but the engine still runs the
	// scan, so a pathological cross join gives cancellation a real
	// in-flight statement to abort.
	s, err := schema.NewBuilder().
		Table("Big").NotNullCol("N", sqlvalue.Int).PK("N").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(s)
	db.MustExec("INSERT INTO Attendance (UId, EId) VALUES (1, 2)")
	pol := policy.MustNew(s, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
	})
	px := proxy.NewServer(db, checker.New(pol), proxy.LogOnly)
	var sb strings.Builder
	sb.WriteString("INSERT INTO Big (N) VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	db.MustExec(sb.String())
	addr := listen(t, px)
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})

	// A 2000^3 cross join with an unsatisfiable filter: never finishes
	// on its own within the test deadline.
	pc.send('Q', append([]byte("SELECT a.N FROM Big a, Big b, Big c WHERE a.N + b.N + c.N < 0"), 0))
	time.Sleep(100 * time.Millisecond) // let the statement get in flight
	pc.cancelVia(addr)
	msgs := pc.readUntilReady()
	wantSQLState(t, msgs, "57014")

	// The connection survives cancellation.
	wantCommandTag(t, pc.query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")

	// A CancelRequest with the wrong secret is ignored.
	pc2 := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	pc2.secret++
	pc2.cancelVia(addr)
	wantCommandTag(t, pc2.query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
}

// TestPreparedStatementFrontCacheHit pins that a prepared statement
// issued via the extended protocol registers as a history-free hit on
// its second execution: the first decides cold and stores the
// trace-independent allow, and the second, bound to the same value,
// fills the same plan slots and so lands on the same key.
func TestPreparedStatementFrontCacheHit(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	addr := listen(t, px)
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})

	pc.sendParse("q", "SELECT EId FROM Attendance WHERE UId = $1", nil)
	pc.sendSync()
	pc.readUntilReady()

	reg := px.Checker.Metrics()
	before := reg.Counter("checker.histfree.hit").Value()

	for i := 0; i < 2; i++ {
		pc.sendBind("", "q", []string{"1"})
		pc.sendExecute("", 0)
		pc.sendSync()
		msgs := pc.readUntilReady()
		wantCommandTag(t, msgs, "SELECT 1")
	}

	if got := reg.Counter("checker.histfree.hit").Value(); got != before+1 {
		t.Fatalf("histfree hits across two executions = %d, want %d", got-before, 1)
	}
}

func TestConnectionLimit(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	px.MaxConns = 1
	px.Logf = t.Logf
	addr := listen(t, px)
	_ = dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	if got := refusal(t, addr); got != "53300" {
		t.Fatalf("SQLSTATE = %q, want 53300", got)
	}
}

// refusal dials addr and returns the SQLSTATE of the ErrorResponse the
// server answers with before any startup exchange.
func refusal(t *testing.T, addr string) string {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [5]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("read rejection: %v", err)
	}
	if hdr[0] != 'E' {
		t.Fatalf("got %c, want ErrorResponse", hdr[0])
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[1:])-4)
	if _, err := io.ReadFull(c, payload); err != nil {
		t.Fatal(err)
	}
	return errorFields(payload)['C']
}

// waitNoConns waits until px holds no connection of any ingress.
func waitNoConns(t *testing.T, px *proxy.Server, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for px.MetricsRegistry().Counter("proxy.conns.active").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a connection is still held 2s after %s", after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSharedConnectionLimit: v2 and pgwire connections share one
// MaxConns. A v2 connection holding the only slot turns a pgwire dial
// away with 53300; a pgwire connection holding it turns a v2 dial away
// with the JSON refusal.
func TestSharedConnectionLimit(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	px.MaxConns = 1
	px.Logf = t.Logf
	pgAddr := listen(t, px)
	v2Addr, err := px.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cl, err := proxy.Dial(v2Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if got := refusal(t, pgAddr); got != "53300" {
		t.Fatalf("pgwire dial while v2 holds the slot: SQLSTATE %q, want 53300", got)
	}
	cl.Close()
	waitNoConns(t, px, "the v2 client closed")

	_ = dialPg(t, pgAddr, map[string]string{"attr.MyUId": "1"})
	c, err := net.DialTimeout("tcp", v2Addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(c).ReadBytes('\n')
	if err != nil {
		t.Fatalf("v2 dial while pgwire holds the slot: %v, want the refusal", err)
	}
	var resp proxy.Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.Code != acerr.CodeTooManyConns {
		t.Fatalf("v2 dial while pgwire holds the slot: %s (%v), want code %s", line, err, acerr.CodeTooManyConns)
	}
}

// TestConnCountersCountPgwire: proxy.conns.total and proxy.conns.active
// count pgwire connections.
func TestConnCountersCountPgwire(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	addr := listen(t, px)
	a := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	b := dialPg(t, addr, map[string]string{"attr.MyUId": "2"})
	if n := px.MetricsRegistry().Counter("proxy.conns.active").Value(); n != 2 {
		t.Fatalf("proxy.conns.active = %d with two pgwire clients, want 2", n)
	}
	if n := px.MetricsRegistry().Counter("proxy.conns.total").Value(); n != 2 {
		t.Fatalf("proxy.conns.total = %d after two pgwire dials, want 2", n)
	}
	a.c.Close()
	b.c.Close()
	waitNoConns(t, px, "both pgwire clients closed")
}

// TestIdleClientDropped: under ReadTimeout, a pgwire client that sends
// nothing after startup is dropped, and its slot freed.
func TestIdleClientDropped(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	px.ReadTimeout = 100 * time.Millisecond
	addr := listen(t, px)
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	pc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := pc.c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle client read %v, want EOF", err)
	}
	waitNoConns(t, px, "the client went idle")
}

// TestStalledReaderDropped: a pgwire client that sends queries but
// never reads their replies is dropped after ReadTimeout — the deadline
// covers the server's writes too — and its slot freed.
func TestStalledReaderDropped(t *testing.T) {
	px := padProxy(t, 200, 100)
	px.ReadTimeout = 200 * time.Millisecond
	addr := listen(t, px)
	pc := dialPg(t, addr, nil)
	q := frontend('Q', []byte("SELECT N, Pad FROM Big\x00"))
	wrote := make(chan int, 1)
	go func() {
		n := 0
		for {
			pc.c.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := pc.c.Write(q); err != nil {
				wrote <- n
				return
			}
			n++
		}
	}()
	n := <-wrote
	waitNoConns(t, px, fmt.Sprintf("the client stopped reading (%d queries written)", n))
}

// wantViolationThenClose reads every reply up to the end of the
// connection: the last must be an ErrorResponse with SQLSTATE 08P01
// (protocol_violation), and the server must then close the connection.
func (pc *pgConn) wantViolationThenClose() {
	pc.t.Helper()
	var msgs []backendMsg
	for {
		pc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var hdr [5]byte
		if _, err := io.ReadFull(pc.r, hdr[:]); err == io.EOF {
			break
		} else if err != nil {
			pc.t.Fatalf("after %s: %v, want the connection closed", msgTypes(msgs), err)
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[1:])-4)
		if _, err := io.ReadFull(pc.r, payload); err != nil {
			pc.t.Fatal(err)
		}
		msgs = append(msgs, backendMsg{typ: hdr[0], payload: payload})
	}
	if len(msgs) == 0 || msgs[len(msgs)-1].typ != 'E' {
		pc.t.Fatalf("replies %s, want an ErrorResponse last", msgTypes(msgs))
	}
	if f := errorFields(msgs[len(msgs)-1].payload); f['C'] != "08P01" {
		pc.t.Fatalf("SQLSTATE = %q (%q), want 08P01", f['C'], f['M'])
	}
}

// TestParseNegativeParamTypeCount: a Parse declaring a negative number
// of parameter types is a protocol violation that closes the connection
// (it once panicked the whole proxy in make), and the server serves the
// next connection.
func TestParseNegativeParamTypeCount(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	pc.send('P', []byte("\x00SELECT EId FROM Attendance WHERE UId = $1\x00\xff\xff"))
	pc.sendSync()
	pc.wantViolationThenClose()
	wantCommandTag(t, dialPg(t, addr, map[string]string{"attr.MyUId": "1"}).query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
}

// TestBindNegativeFormatCount: the same for a Bind with a negative
// parameter-format count.
func TestBindNegativeFormatCount(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	pc.sendParse("", "SELECT EId FROM Attendance WHERE UId = $1", nil)
	pc.send('B', []byte("\x00\x00\xff\xff"))
	pc.sendSync()
	pc.wantViolationThenClose()
	wantCommandTag(t, dialPg(t, addr, map[string]string{"attr.MyUId": "1"}).query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
}

// TestBindNegativeParamCount: the same for a Bind with a negative
// parameter count, 0xFFFF.
func TestBindNegativeParamCount(t *testing.T) {
	addr := listen(t, testProxy(t, proxy.Enforce))
	pc := dialPg(t, addr, map[string]string{"attr.MyUId": "1"})
	pc.sendParse("", "SELECT EId FROM Attendance WHERE UId = $1", nil)
	pc.send('B', []byte("\x00\x00\x00\x00\xff\xff"))
	pc.sendSync()
	pc.wantViolationThenClose()
	wantCommandTag(t, dialPg(t, addr, map[string]string{"attr.MyUId": "1"}).query("SELECT EId FROM Attendance WHERE UId = 1"), "SELECT 1")
}

// TestAttrTyping: an untyped (OID 0) parameter is typed as an attr.*
// startup parameter and a driver DSN attribute are (proxy.TypeAttr; the
// same table is in driver), so one principal keys the same decisions on
// every surface.
func TestAttrTyping(t *testing.T) {
	for in, want := range map[string]string{
		"1": "int64 1", "-7": "int64 -7", "2.0": "float64 2", "1e3": "float64 1000",
		"NaN": "float64 NaN", "t": "bool true", "FALSE": "bool false",
		"0x10": "string 0x10", "": "string ",
	} {
		v, err := decodeTextParam(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T %v", v, v); got != want {
			t.Errorf("untyped parameter %q: %s, want %s", in, got, want)
		}
	}
}
