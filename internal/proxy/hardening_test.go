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
	"time"
)

func quietLog(t *testing.T, srv *Server) {
	t.Helper()
	srv.Logf = func(format string, args ...any) { t.Logf(format, args...) }
}

// TestOversizedRequestLine: a request longer than MaxLineBytes gets a
// final error Response before the connection is closed, instead of a
// silent drop.
func TestOversizedRequestLine(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	srv.MaxLineBytes = 1024
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
	if _, err := conn.Write([]byte(`{"op":"query","sql":"` + strings.Repeat("x", 4096) + `"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("expected a final error response, got read error %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("bad final response %q: %v", line, err)
	}
	if resp.Error == "" || !strings.Contains(resp.Error, "too long") {
		t.Fatalf("final response should surface the scanner error: %+v", resp)
	}
	// The connection is then closed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Fatal("connection should be closed after an oversized line")
	}
}

// TestConnectionLimit: past MaxConns, new dials get one error
// Response and are closed; existing connections keep working, and
// closing one frees a slot.
func TestConnectionLimit(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	srv.MaxConns = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl1.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Hello(context.Background(), map[string]any{"MyUId": 2}); err != nil {
		t.Fatal(err)
	}

	// Third dial: rejected with an explanatory response.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("rejected dial should receive an error response: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "connection limit") {
		t.Fatalf("rejection reason: %+v", resp)
	}

	// Existing sessions unaffected.
	if _, err := cl1.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1"); err != nil {
		t.Fatalf("existing connection broken by rejected dial: %v", err)
	}

	// Freeing a slot admits a new connection.
	cl2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl3, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl3.Hello(context.Background(), map[string]any{"MyUId": 3}); err == nil {
			cl3.Close()
			break
		}
		cl3.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot was not freed after closing a connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadTimeoutDropsIdleConnection: a connection that sends nothing
// is dropped after ReadTimeout with a surfaced reason.
func TestReadTimeoutDropsIdleConnection(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	srv.ReadTimeout = 100 * time.Millisecond
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
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("idle drop should surface a final response, got %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatalf("expected a timeout error response: %+v", resp)
	}
}

// TestStalledReaderDropped: a client that writes requests but never
// reads its responses must not hold its connection (and a MaxConns
// slot) past ReadTimeout — the deadline covers the server's writes too.
func TestStalledReaderDropped(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	srv.ReadTimeout = 200 * time.Millisecond
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
	// Write stats requests without reading until the write blocks (both
	// socket buffers full) or fails (the server dropped the connection).
	wrote := make(chan int, 1)
	go func() {
		line := []byte(`{"op":"stats"}` + "\n")
		n := 0
		for {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := conn.Write(line); err != nil {
				wrote <- n
				return
			}
			n++
		}
	}()
	n := <-wrote
	deadline := time.Now().Add(2 * time.Second)
	for srv.StatsSnapshot().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection still held 2s after its client stopped reading (%d requests written)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulCloseDrains: Close returns only after in-flight request
// handling finished, and the response of a request racing with Close
// still arrives.
func TestGracefulCloseDrains(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	queryErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = 1")
		queryErr <- err
	}()
	// Close concurrently; it must return (drain) without hanging.
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain within 10s")
	}
	wg.Wait()
	// The racing query either completed or the connection was torn
	// down — both acceptable; a hang is not.
	<-queryErr

	// After Close, the listener is gone.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener should be closed")
	}
}

// TestCloseIdempotent: double Close must not panic or hang.
func TestCloseIdempotent(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOps stresses one server with goroutines mixing
// hello, query, exec, and stats; run under -race.
func TestConcurrentMixedOps(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			uid := g%2 + 1
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
			for i := 0; i < 15; i++ {
				switch i % 4 {
				case 0:
					if _, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?", uid); err != nil {
						errs <- fmt.Errorf("g%d query: %w", g, err)
						return
					}
				case 1:
					// Cross-user reads block but must not error the wire.
					if _, err := cl.Query(context.Background(), "SELECT * FROM Attendance"); err == nil {
						errs <- fmt.Errorf("g%d: table scan was not blocked", g)
						return
					}
				case 2:
					if _, err := cl.Exec(context.Background(), "INSERT INTO Attendance (UId, EId) VALUES (?, ?)", uid, 100+g*100+i); err != nil {
						errs <- fmt.Errorf("g%d exec: %w", g, err)
						return
					}
				default:
					if _, err := cl.Stats(context.Background()); err != nil {
						errs <- fmt.Errorf("g%d stats: %w", g, err)
						return
					}
				}
			}
			// Re-hello resets the session history mid-connection.
			if err := cl.Hello(context.Background(), map[string]any{"MyUId": uid}); err != nil {
				errs <- err
				return
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.StatsSnapshot()
	if st.Queries == 0 || st.TotalConns < 10 {
		t.Errorf("stats after stress: %+v", st)
	}
}

// TestExtendedStats: the stats op exposes latency percentiles, cache
// hit rates, fact-cache counters, and connection accounting.
func TestExtendedStats(t *testing.T) {
	srv := testServer(t, Enforce)
	quietLog(t, srv)
	cl := dialTest(t, srv)
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	// Build history so the fact cache sees reuse: each query derives
	// facts over the prior entries.
	if _, err := cl.Query(context.Background(), "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(context.Background(), "SELECT * FROM Events WHERE EId=2"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 4 || st.Decisions != 4 {
		t.Fatalf("counters: %+v", st)
	}
	if st.LatencySamples != 4 || st.LatencyP50Micros < 0 || st.LatencyP99Micros < st.LatencyP50Micros {
		t.Errorf("latency: %+v", st)
	}
	if st.FactEntriesTranslated == 0 {
		t.Errorf("fact cache: expected translated entries, got %+v", st)
	}
	if st.FactEntriesReused == 0 || st.FactCacheHitRate <= 0 {
		t.Errorf("fact cache: expected reuse across checks, got %+v", st)
	}
	if st.CacheHits == 0 || st.CacheHitRate <= 0 {
		t.Errorf("decision cache: expected template hits, got %+v", st)
	}
	if st.ActiveConns != 1 || st.TotalConns != 1 {
		t.Errorf("conn accounting: %+v", st)
	}
}
