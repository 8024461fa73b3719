package pgwire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

// forumProxy serves the forum fixture seeded with users users (two
// posts each; odd PIds are public). Its range reads derive no fact from
// their rows, so over pgwire they stream from the engine's scan.
func forumProxy(tb testing.TB, mode proxy.Mode, users int) *proxy.Server {
	tb.Helper()
	f, err := apps.ByName("forum")
	if err != nil {
		tb.Fatal(err)
	}
	return proxy.NewServer(f.MustNewDB(users), checker.New(f.Policy()), mode)
}

// padProxy serves one table, Big(N INTEGER PRIMARY KEY, Pad TEXT),
// holding rows rows whose Pad is one shared string of pad bytes, with
// enforcement off: every read streams, and a read of many rows frames
// far more bytes than the table holds.
func padProxy(t *testing.T, rows, pad int) *proxy.Server {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Big").NotNullCol("N", sqlvalue.Int).NotNullCol("Pad", sqlvalue.Text).PK("N").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(s)
	p := strings.Repeat("p", pad)
	for i := 0; i < rows; i++ {
		if err := db.InsertRow("Big", i, p); err != nil {
			t.Fatal(err)
		}
	}
	pol := policy.MustNew(s, map[string]string{"V": "SELECT N FROM Big"})
	return proxy.NewServer(db, checker.New(pol), proxy.Off)
}

// cancelAndWait sends a CancelRequest for pc's running statement and
// waits until the server has acted on it: it closes a cancel
// connection once the statement's cancel has been called.
func (pc *pgConn) cancelAndWait(addr string) {
	pc.t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		pc.t.Fatal(err)
	}
	defer c.Close()
	b := binary.BigEndian.AppendUint32(nil, 16)
	b = binary.BigEndian.AppendUint32(b, cancelCode)
	b = binary.BigEndian.AppendUint32(b, uint32(pc.pid))
	b = binary.BigEndian.AppendUint32(b, uint32(pc.secret))
	if _, err := c.Write(b); err != nil {
		pc.t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		pc.t.Fatalf("cancel connection: %v, want the server to close it", err)
	}
}

// wantOwnRows checks the reply to "SELECT N FROM Big WHERE N < 3": its
// three rows and nothing another statement left behind.
func wantOwnRows(t *testing.T, msgs []backendMsg) {
	t.Helper()
	if got := msgTypes(msgs); got != "TDDDCZ" {
		t.Fatalf("next statement's replies %q, want its RowDescription, 3 DataRows, CommandComplete, ReadyForQuery", got)
	}
	for i, m := range msgs[1:4] {
		if got := dataRowValues(t, m); len(got) != 1 || got[0] != fmt.Sprint(i) {
			t.Fatalf("next statement's row %d = %v, want [%d]", i, got, i)
		}
	}
	wantCommandTag(t, msgs, "SELECT 3")
}

// TestStreamedReadCanceled: a streamed read canceled by a CancelRequest
// answers with an ErrorResponse and no DataRow, however many rows its
// scan had framed, and the next statement on the connection frames its
// own rows only. The cancel is sent at a random point of the read's
// measured duration until three reads have been canceled; most land
// while the rows are being framed.
func TestStreamedReadCanceled(t *testing.T) {
	const rows = 100_000
	addr := listen(t, padProxy(t, rows, 100))
	pc := dialPg(t, addr, nil)
	const read = "SELECT N, Pad FROM Big WHERE N >= 0"

	start := time.Now()
	pc.send('Q', append([]byte(read), 0))
	first := pc.read()
	took := time.Since(start)
	if msgs := append([]backendMsg{first}, pc.readUntilReady()...); countMsgs(msgs, 'D') != rows {
		t.Fatalf("uncanceled read: %d DataRows, want %d", countMsgs(msgs, 'D'), rows)
	}

	rng := rand.New(rand.NewSource(1))
	canceled := 0
	for try := 0; canceled < 3; try++ {
		if try == 40 {
			t.Fatalf("%d of %d reads canceled over %v", canceled, try, took)
		}
		pc.send('Q', append([]byte(read), 0))
		time.Sleep(time.Duration(float64(took) * (0.2 + 0.7*rng.Float64())))
		pc.cancelAndWait(addr)
		msgs := pc.readUntilReady()
		switch d := countMsgs(msgs, 'D'); {
		case findMsg(msgs, 'E') != nil:
			wantSQLState(t, msgs, "57014")
			if d != 0 {
				t.Fatalf("canceled read sent %d DataRows", d)
			}
			canceled++
		case d != rows:
			t.Fatalf("read the cancel missed: %d DataRows, want %d", d, rows)
		}
		wantOwnRows(t, pc.query("SELECT N FROM Big WHERE N < 3"))
	}
}

// TestStreamedReadFails: a streamed read whose evaluation fails
// answers with an ErrorResponse and no DataRow, and the next statement
// frames its own rows only.
func TestStreamedReadFails(t *testing.T) {
	addr := listen(t, padProxy(t, 100, 10))
	pc := dialPg(t, addr, nil)
	msgs := pc.query("SELECT N, Pad FROM Big WHERE N >= 0 AND N > (SELECT N FROM Big WHERE N >= 0)")
	wantSQLState(t, msgs, "XX000")
	if d := countMsgs(msgs, 'D'); d != 0 {
		t.Fatalf("failed read sent %d DataRows", d)
	}
	wantOwnRows(t, pc.query("SELECT N FROM Big WHERE N < 3"))
}

// TestStalledReaderDoesNotBlockWriters pins that no socket write
// happens under the engine's read lock: a client that asks for a 16 MB
// result and stops reading after its first message leaves the server
// blocked in a write, while another connection's INSERT, which needs
// the write lock, still completes.
func TestStalledReaderDoesNotBlockWriters(t *testing.T) {
	addr := listen(t, padProxy(t, 16_000, 1000))
	stalled := dialPg(t, addr, nil)
	stalled.send('Q', []byte("SELECT N, Pad FROM Big WHERE N >= 0\x00"))
	if m := stalled.read(); m.typ == 'E' {
		t.Fatalf("read failed: %v", errorFields(m.payload))
	}

	writer := dialPg(t, addr, nil)
	wantCommandTag(t, writer.query("INSERT INTO Big (N, Pad) VALUES (-1, 'x')"), "INSERT 0 1")
}

// TestOffFramesEnforceRows: with enforcement off a connection frames
// byte for byte the rows Enforce frames, for a streamed range read and
// a point read, and its session records nothing; under Enforce the
// range read's entry keeps its count and no row.
func TestOffFramesEnforceRows(t *testing.T) {
	q := frontend('Q', []byte("SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= 1 AND PId < 101\x00"))
	q = append(q, frontend('Q', []byte("SELECT Body FROM Posts WHERE PId = 3 AND Visibility = 'public'\x00"))...)
	var replies [2][]byte
	var entries [2]int
	for i, mode := range []proxy.Mode{proxy.Enforce, proxy.Off} {
		sc, c := serveScripted(t, forumProxy(t, mode, 100), "attr.MyUId\x002\x00")
		out, _ := sc.exchange(t, q)
		replies[i] = bytes.Clone(out)
		es, _ := c.sess.Trace().SnapshotState()
		entries[i] = len(es)
		if mode == proxy.Enforce && (len(es) != 2 || len(es[0].Rows) != 0 || es[0].Omitted != 50) {
			t.Fatalf("Enforce trace %+v: want 2 entries, the range read's keeping no row and omitting 50", es)
		}
	}
	msgs := backendMsgs(t, replies[0])
	if countMsgs(msgs, 'D') != 51 || countMsgs(msgs, 'E') != 0 {
		t.Fatalf("Enforce replies %s, want 51 DataRows and no error", msgTypes(msgs))
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Errorf("Off frames differently from Enforce:\n off     %x\n enforce %x", replies[1], replies[0])
	}
	if entries[1] != 0 {
		t.Errorf("Off recorded %d trace entries, want 0", entries[1])
	}
}

// servePostsRange serves one connection to a forum proxy as principal 2
// and prepares, as statement "r", pg_scan's range read of public posts.
func servePostsRange(t *testing.T, px *proxy.Server) (*scriptConn, *conn) {
	t.Helper()
	sc, c := serveScripted(t, px, "attr.MyUId\x002\x00")
	parse := frontend('P', []byte("r\x00SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= $1 AND PId < $2\x00\x00\x00"))
	sc.exchange(t, append(parse, frontend('S', nil)...))
	return sc, c
}

// postsRange is the Bind/Execute/Sync of statement "r" that reads rows
// public posts, from PId 1001 on (the fixture must hold 500+rows users).
// Both bounds are at least 256, which Go boxes in an interface with one
// allocation, as it does not a smaller integer.
func postsRange(rows int) []byte {
	b := []byte("\x00r\x00\x00\x00\x00\x02")
	for _, a := range []string{"1001", fmt.Sprint(1001 + 2*rows)} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(a)))
		b = append(b, a...)
	}
	b = frontend('B', append(b, 0, 0))
	b = append(b, frontend('E', []byte{0, 0, 0, 0, 0})...)
	return append(b, frontend('S', nil)...)
}

// TestPgExchangeAllocsConstant is the pg exchange's allocation
// contract: a Bind/Execute/Sync of a prepared range read costs the
// server the same number of allocations for 50 rows as for 500 — the
// rows stream from the engine's scan into the connection's reused
// output buffer, and no result set is built. Measured over the
// in-memory scriptConn, whose side allocates nothing.
func TestPgExchangeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation accounting")
	}
	px := forumProxy(t, proxy.Enforce, 1000)
	px.HistoryWindow = 32
	sc, _ := servePostsRange(t, px)
	counts, bytesPer := map[int]float64{}, map[int]uint64{}
	for _, rows := range []int{50, 500} {
		ex := postsRange(rows)
		for i := 0; i < 3; i++ {
			out, _ := sc.exchange(t, ex)
			if msgs := backendMsgs(t, out); countMsgs(msgs, 'D') != rows {
				t.Fatalf("%d-row read: replies %s", rows, msgTypes(msgs))
			}
		}
		counts[rows] = testing.AllocsPerRun(50, func() { sc.send(ex) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			sc.send(ex)
		}
		runtime.ReadMemStats(&after)
		bytesPer[rows] = (after.TotalAlloc - before.TotalAlloc) / 50
	}
	if counts[50] != counts[500] {
		t.Errorf("pg range read exchange allocates %v times for 50 rows, %v for 500; contract is the same count", counts[50], counts[500])
	}
	if bytesPer[500] > bytesPer[50]+1024 {
		t.Errorf("pg range read exchange allocates %d bytes for 50 rows, %d for 500; contract is within 1 KiB", bytesPer[50], bytesPer[500])
	}
	t.Logf("%v allocs, %v bytes", counts, bytesPer)
}

// memConn is an in-memory netConn over a fixed frontend byte stream:
// Read serves it, then io.EOF; Write appends to out.
type memConn struct {
	r   *bytes.Reader
	out []byte
}

func (m *memConn) Read(p []byte) (int, error) { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error) {
	m.out = append(m.out, p...)
	return len(p), nil
}
func (m *memConn) SetDeadline(time.Time) error { return nil }

// startupMsg frames a v3 StartupMessage with the given parameters
// ("key\x00value\x00" pairs).
func startupMsg(params string) []byte {
	body := append(binary.BigEndian.AppendUint32(nil, protoV3), params+"\x00"...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+4)), body...)
}

// FuzzPgFrontend drives conn.serve through the netConn seam with a
// fuzzed frontend byte stream, startup message included, against the
// smallest forum fixture (six posts, so a fuzzed cross join stays
// small; a statement's context ends after a second): serve must not
// panic, must return once the input ends, must write only whole backend
// messages (after the one-byte answers to SSLRequests), and must then
// keep at most rowsKeep of output capacity.
func FuzzPgFrontend(f *testing.F) {
	start := startupMsg("user\x00fuzz\x00attr.MyUId\x002\x00")
	parse := frontend('P', []byte("\x00SELECT Body FROM Posts WHERE PId = $1\x00\x00\x00"))
	bind := frontend('B', []byte("\x00\x00\x00\x00\x00\x01\x00\x00\x00\x013\x00\x00"))
	exec := frontend('E', []byte{0, 0, 0, 0, 0})
	sync := frontend('S', nil)
	join := func(msgs ...[]byte) []byte { return bytes.Join(msgs, nil) }
	f.Add(join(start, parse, frontend('B', []byte("\x00\x00\x00\x00\xff\xff")), sync))
	f.Add(join(start, parse, bind, exec, sync))
	f.Add(join(start,
		frontend('Q', []byte("BEGIN\x00")),
		frontend('Q', []byte("SELECT Body FROM Posts WHERE PId = 2\x00")),
		frontend('Q', []byte("SELECT Body FROM Posts WHERE PId = 3 AND Visibility = 'public'\x00")),
		frontend('Q', []byte("COMMIT\x00"))))
	f.Add(join(start, frontend('Q', []byte("SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= 1 AND PId < 7\x00"))))
	f.Fuzz(func(t *testing.T, in []byte) {
		px := forumProxy(t, proxy.Enforce, 3)
		defer px.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		mc := &memConn{r: bytes.NewReader(in)}
		c := &conn{srv: NewServer(px), netc: mc, pid: 1, secret: 2}
		done := make(chan string, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Sprintf("%v\n%s", r, debug.Stack())
				}
				close(done)
			}()
			c.serve(ctx)
		}()
		select {
		case p, panicked := <-done:
			if panicked {
				t.Fatalf("serve panicked: %s", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not return after its input ended")
		}
		backendMsgs(t, bytes.TrimLeft(mc.out, "N"))
		if n := cap(c.out); n > rowsKeep {
			t.Fatalf("connection keeps %d bytes of output capacity, want at most %d", n, rowsKeep)
		}
	})
}
