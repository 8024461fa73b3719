package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acerr"
)

// dialV2 dials the server and keys the default session as user 1.
func dialV2(t *testing.T, srv *Server, opts ...ClientOption) *Client {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// seedWide inserts enough users that a 3-way cross join takes real
// time in the engine (with context ticks along the way).
func seedWide(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 10; i < 10+n; i++ {
		srv.DB.MustExec(fmt.Sprintf("INSERT INTO Users (UId, Name) VALUES (%d, 'u%d')", i, i))
	}
}

const (
	slowJoin3 = "SELECT u1.UId FROM Users u1 CROSS JOIN Users u2 CROSS JOIN Users u3"
	slowJoin4 = "SELECT u1.UId FROM Users u1 CROSS JOIN Users u2 CROSS JOIN Users u3 CROSS JOIN Users u4"
)

func TestPipelinedOutOfOrderAcrossLanes(t *testing.T) {
	srv := testServer(t, Off)
	seedWide(t, srv, 80)
	cl := dialTest(t, srv) // no Hello: every connection pipelines
	ctx := context.Background()

	slow, err := cl.Lane(1).QueryAsync(ctx, slowJoin3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cl.Lane(2).QueryAsync(ctx, "SELECT Name FROM Users WHERE UId = 1")
	if err != nil {
		t.Fatal(err)
	}

	var fastDone, slowDone time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := slow.Wait(ctx); err != nil {
			t.Errorf("slow query: %v", err)
		}
		slowDone = time.Now()
	}()
	go func() {
		defer wg.Done()
		if _, err := fast.Wait(ctx); err != nil {
			t.Errorf("fast query: %v", err)
		}
		fastDone = time.Now()
	}()
	wg.Wait()
	if !fastDone.Before(slowDone) {
		t.Fatalf("expected the fast lane to complete first (fast %v, slow %v): responses were not reordered",
			fastDone, slowDone)
	}

	// The default session pipelines without a Hello too.
	p, err := cl.QueryAsync(ctx, "SELECT Name FROM Users WHERE UId = 1")
	if err != nil {
		t.Fatalf("QueryAsync before any Hello: %v", err)
	}
	if rows, err := p.Wait(ctx); err != nil || len(rows.Rows) != 1 {
		t.Fatalf("QueryAsync before any Hello: %v %+v", err, rows)
	}
	res, err := cl.Batch(ctx, []BatchItem{{SQL: "SELECT Name FROM Users WHERE UId = 2"}})
	if err != nil || len(res) != 1 || res[0].Err != nil || len(res[0].Rows.Rows) != 1 {
		t.Fatalf("Batch before any Hello: %v %+v", err, res)
	}
}

func TestPipelinedSessionOrderPreserved(t *testing.T) {
	// Example 2.1 pipelined: the access probe and the event fetch are
	// sent back-to-back without waiting. Because one lane serializes,
	// the probe's answer must be in the history by the time the fetch
	// is checked, so the fetch is allowed.
	srv := testServer(t, Enforce)
	cl := dialV2(t, srv)
	ctx := context.Background()

	probe, err := cl.QueryAsync(ctx, "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := cl.QueryAsync(ctx, "SELECT * FROM Events WHERE EId=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Wait(ctx); err != nil {
		t.Fatalf("probe: %v", err)
	}
	rows, err := fetch.Wait(ctx)
	if err != nil {
		t.Fatalf("pipelined fetch after probe must be allowed: %v", err)
	}
	if len(rows.Rows) != 1 {
		t.Fatalf("rows: %+v", rows.Rows)
	}
}

func TestBatchMidBlocked(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialV2(t, srv)
	ctx := context.Background()

	res, err := cl.Batch(ctx, []BatchItem{
		{SQL: "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"},
		{SQL: "SELECT Name FROM Users WHERE UId = 2"}, // no view covers Users
		{SQL: "SELECT * FROM Events WHERE EId=2"},
		{SQL: "INSERT INTO Attendance (UId, EId) VALUES (1, 3)", Exec: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	if res[0].Err != nil || len(res[0].Rows.Rows) != 1 {
		t.Fatalf("probe: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrBlocked) {
		t.Fatalf("blocked item: %v", res[1].Err)
	}
	var be *BlockedError
	if !errors.As(res[1].Err, &be) || be.Reason == "" {
		t.Fatalf("blocked item should carry a reason: %v", res[1].Err)
	}
	// The block must not abort the rest, and the probe's history
	// applies to the later fetch.
	if res[2].Err != nil || len(res[2].Rows.Rows) != 1 {
		t.Fatalf("fetch after mid-batch block: %+v", res[2])
	}
	if res[3].Err != nil || res[3].Affected != 1 {
		t.Fatalf("exec item: %+v", res[3])
	}
}

func TestCancelAbortsSlowQuery(t *testing.T) {
	srv := testServer(t, Off)
	seedWide(t, srv, 80)
	cl := dialV2(t, srv)

	p, err := cl.QueryAsync(context.Background(), slowJoin4)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Wait(waitCtx)
	if !errors.Is(err, acerr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v", elapsed)
	}

	// The connection must stay usable, and the server must have
	// aborted the join (a 41M-row cross product would take far longer
	// than this query round trip).
	rows, err := cl.Query(context.Background(), "SELECT Name FROM Users WHERE UId = 1")
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("connection unusable after cancel: %v %+v", err, rows)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if metric(t, st, "proxy.reqs.canceled") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never reached the in-flight request: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestV1WireCompat drives the server with a raw v1 client: no hello
// negotiation, no IDs. Responses must come back strictly in order
// with v1 shapes.
func TestV1WireCompat(t *testing.T) {
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
	enc := json.NewEncoder(conn)
	r := bufio.NewReader(conn)
	read := func() Response {
		t.Helper()
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if err := enc.Encode(Request{Op: "hello", Session: map[string]any{"MyUId": 1}}); err != nil {
		t.Fatal(err)
	}
	h := read()
	if !h.OK || h.Proto != 0 || h.ID != 0 {
		t.Fatalf("v1 hello response changed shape: %+v", h)
	}

	// Two pipelined-on-the-wire requests on one session: they run, and
	// answer, in order.
	if err := enc.Encode(Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Request{Op: "query", SQL: "SELECT Name FROM Users WHERE UId = 2"}); err != nil {
		t.Fatal(err)
	}
	first := read()
	if !first.OK || first.Blocked || len(first.Rows) != 1 {
		t.Fatalf("first response: %+v", first)
	}
	second := read()
	if !second.OK || !second.Blocked {
		t.Fatalf("second response should be the policy block: %+v", second)
	}

	// Unnumbered control ops: each gets exactly one reply, in order —
	// the query after them reads its own answer, not a stray one.
	if err := enc.Encode(Request{Op: "stats"}); err != nil {
		t.Fatal(err)
	}
	if st := read(); !st.OK || st.ID != 0 || st.Metrics == nil {
		t.Fatalf("unnumbered stats: %+v", st)
	}
	if err := enc.Encode(Request{Op: "cancel"}); err != nil {
		t.Fatal(err)
	}
	if c := read(); !c.OK || c.ID != 0 || c.Metrics != nil || c.Rows != nil {
		t.Fatalf("unnumbered cancel: %+v", c)
	}
	if err := enc.Encode(Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}); err != nil {
		t.Fatal(err)
	}
	if q := read(); !q.OK || q.Blocked || len(q.Rows) != 1 {
		t.Fatalf("query after the control ops: %+v", q)
	}
}

func TestPipelineStress(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialV2(t, srv, WithWindow(16))

	const (
		lanes   = 4
		perLane = 40
	)
	var wg sync.WaitGroup
	for l := 1; l <= lanes; l++ {
		wg.Add(1)
		go func(sid uint64) {
			defer wg.Done()
			ctx := context.Background()
			ln := cl.Lane(sid)
			if err := ln.Hello(ctx, map[string]any{"MyUId": int(sid)}); err != nil {
				t.Errorf("lane %d hello: %v", sid, err)
				return
			}
			for i := 0; i < perLane; i++ {
				if i%5 == 4 {
					// A blocked query mixed in.
					_, err := ln.Query(ctx, "SELECT Name FROM Users WHERE UId = 99")
					if !errors.Is(err, ErrBlocked) {
						t.Errorf("lane %d: want block, got %v", sid, err)
					}
					continue
				}
				rows, err := ln.Query(ctx, "SELECT EId FROM Attendance WHERE UId = ?", int(sid))
				if err != nil {
					t.Errorf("lane %d: %v", sid, err)
					return
				}
				_ = rows
			}
		}(uint64(l))
	}
	wg.Wait()
}

// TestMassLanesHelloAsync keys thousands of sessions over one
// connection with hellos sent without waiting, then verifies (a) idle
// lanes do not each hold a server goroutine — lane runners must exit
// when their queues drain — and (b) arbitrary lanes still answer on
// their own session state afterward.
func TestMassLanesHelloAsync(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialV2(t, srv, WithWindow(32))
	ctx := context.Background()

	const lanes = 2000
	pending := make([]*Pending, 0, 64)
	flush := func() {
		for _, p := range pending {
			if resp, err := p.Wait(ctx); err != nil || resp.Error != "" {
				t.Fatal(err, resp)
			}
		}
		pending = pending[:0]
	}
	for sid := 1; sid <= lanes; sid++ {
		p, err := cl.start(ctx, &Request{Op: "hello", SID: uint64(sid), Session: map[string]any{"MyUId": sid%3 + 1}})
		if err != nil {
			t.Fatal(err)
		}
		if pending = append(pending, p); len(pending) == cap(pending) {
			flush()
		}
	}
	flush()

	// Give the last runners a moment to notice empty queues, then pin
	// the design property: goroutine count tracks in-flight work, not
	// session count. The bound is loose (test scaffolding, GC workers)
	// but far below one-per-lane.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > 200 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > 200 {
		t.Fatalf("%d goroutines alive after %d idle lanes; lane runners should exit when drained", n, lanes)
	}

	for _, sid := range []int{1, lanes / 2, lanes} {
		uid := sid%3 + 1
		if _, err := cl.Lane(uint64(sid)).Query(ctx, "SELECT EId FROM Attendance WHERE UId = ?", uid); err != nil {
			t.Fatalf("lane %d: %v", sid, err)
		}
	}
}

func TestWindowBackpressure(t *testing.T) {
	// With a client window of 2, a third async send must block until a
	// response drains. Verify it completes rather than deadlocks.
	srv := testServer(t, Off)
	seedWide(t, srv, 40)
	cl := dialV2(t, srv, WithWindow(2))
	ctx := context.Background()

	var pending []*PendingRows
	for i := 0; i < 8; i++ {
		lane := cl.Lane(uint64(i%2 + 1))
		p, err := lane.QueryAsync(ctx, "SELECT Name FROM Users WHERE UId = 1")
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
		if i == 1 {
			// Drain the first two so later sends can proceed.
			for _, q := range pending {
				if _, err := q.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, q := range pending {
		if _, err := q.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerMaxInFlightBackpressure(t *testing.T) {
	// Server window of 2, client window of 8: the server stops reading
	// past two queued requests, TCP pushes back, and everything still
	// completes in order per lane.
	srv := testServer(t, Enforce)
	srv.MaxInFlight = 2 // before Listen: the per-connection window is sized at accept
	cl := dialV2(t, srv, WithWindow(8))
	ctx := context.Background()

	var pending []*PendingRows
	for i := 0; i < 12; i++ {
		p, err := cl.QueryAsync(ctx, "SELECT EId FROM Attendance WHERE UId = 1")
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for _, p := range pending {
		rows, err := p.Wait(ctx)
		if err != nil || len(rows.Rows) != 1 {
			t.Fatalf("under server backpressure: %v %+v", err, rows)
		}
	}
}

// TestLaneClaimWaitsForUnsentAnswers pins the inline path's order
// rule: a lane whose runner is live refuses the inline claim until the
// runner's last pop. A runner writes each answer into the connection's
// buffer before its next pop, so until then an inline answer could
// reach the wire ahead of one of its answers; after it, none can.
func TestLaneClaimWaitsForUnsentAnswers(t *testing.T) {
	ln := &lane{}
	if !ln.push(pipeJob{}) {
		t.Fatal("a push onto an idle lane did not start a runner")
	}
	if ln.tryClaim() {
		t.Fatal("a lane with a queued job was claimed for inline execution")
	}
	if _, ok := ln.pop(); !ok {
		t.Fatal("the runner found its job missing")
	}
	if ln.tryClaim() {
		t.Fatal("a lane was claimed while its runner was still answering its last job")
	}
	if _, ok := ln.pop(); ok {
		t.Fatal("the runner popped a job that was never pushed")
	}
	if !ln.tryClaim() {
		t.Fatal("an idle lane refused the claim after its runner's last pop")
	}
	if ln.tryClaim() {
		t.Fatal("a claimed lane was claimed twice")
	}
	ln.releaseClaim()
	if !ln.tryClaim() {
		t.Fatal("a released lane refused the claim")
	}
}

// TestLastInLineFlushes pins the write rule: a runner's answer is
// flushed by the last goroutine queued for the write lock, not by each.
// Two runners queue behind a held lock; once it is released they write
// two frames with one flush between them.
func TestLastInLineFlushes(t *testing.T) {
	srv := testServer(t, Enforce)
	client, server := net.Pipe()
	defer client.Close()
	go io.Copy(io.Discard, client)
	pc := newPipeConn(srv, context.Background(), server)
	defer server.Close()
	frames, flushes := srv.mWriteFrames.Value(), srv.mWriteFlushes.Value()

	pc.writeMu.Lock()
	var wg sync.WaitGroup
	for id := uint64(1); id <= 2; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc.answer(&Response{ID: id, OK: true})
		}()
	}
	for pc.waiting.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	pc.writeMu.Unlock()
	wg.Wait()

	if got := srv.mWriteFrames.Value() - frames; got != 2 {
		t.Errorf("%d frames written, want 2", got)
	}
	if got := srv.mWriteFlushes.Value() - flushes; got != 1 {
		t.Errorf("%d flushes for two queued answers, want 1: only the last in line flushes", got)
	}
	if pc.dirty {
		t.Error("an answer was left parked after the last in line flushed")
	}
}

// TestInlineNeverOvertakesLaneAnswers is the lane-overtake race end to
// end. Each round writes, in one write on one session, a query whose
// decision is cold (it takes the lane path) and then up to 64 warm
// queries the inline path may answer. Padding the warm lines with a
// field the server ignores sends them down the slow decoder, so the
// reader now and then falls behind the lane's runner: it reads a warm
// query while the runner is still answering, or just after it drained
// the lane. The inline path must not answer it ahead of the runner's
// answers: the replies come back in request order, round after round.
func TestInlineNeverOvertakesLaneAnswers(t *testing.T) {
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
	const warm = "SELECT EId FROM Attendance WHERE UId = 1 AND EId = 2"
	var buf []byte
	line := func(req Request, pad int) {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if pad > 0 {
			b = fmt.Appendf(b[:len(b)-1], `,"pad":%q}`, strings.Repeat("x", pad))
		}
		buf = append(append(buf, b...), '\n')
	}
	exchange := func(n int) []Response {
		t.Helper()
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		out := make([]Response, n)
		for i := range out {
			b, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	line(Request{Op: "hello", ID: 1, Session: map[string]any{"MyUId": 1}}, 0)
	line(Request{Op: "query", ID: 2, SQL: warm}, 0) // warms the history-free tier
	exchange(2)

	rounds := 600
	if testing.Short() {
		rounds = 100
	}
	id := uint64(2)
	for round := 0; round < rounds; round++ {
		first := id + 1
		id++
		line(Request{Op: "query", ID: id, SQL: fmt.Sprintf("SELECT Name FROM Users WHERE UId = %d", 1000+round)}, 0)
		n := 1 + round%64
		for i := 0; i < n; i++ {
			id++
			line(Request{Op: "query", ID: id, SQL: warm}, (round%8)*512)
		}
		for i, resp := range exchange(1 + n) {
			if want := first + uint64(i); resp.ID != want {
				t.Fatalf("round %d: reply %d answers request %d, want %d: an inline answer overtook a lane answer", round, i, resp.ID, want)
			}
			if !resp.OK || resp.Blocked != (i == 0) {
				t.Fatalf("round %d: reply %d: %+v", round, i, resp)
			}
		}
	}
	if srv.mInlineHits.Value() == 0 {
		t.Fatal("no warm query took the inline path: the rounds did not mix the inline and lane paths")
	}
}

// TestClientCallAfterClose: with no writer goroutine to refuse it, a
// call made after Close still fails, through its own failed write or the
// demux loop's failed read, rather than waiting for an answer that
// cannot come.
func TestClientCallAfterClose(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialV2(t, srv)
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		_, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId = 1")
		if err == nil || errors.Is(err, acerr.ErrCanceled) {
			t.Fatalf("call %d after Close: %v, want a connection error", i, err)
		}
	}
}
