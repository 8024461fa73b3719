package proxy

import (
	"context"
	"net"
	"testing"
)

// discardConn is an in-memory connection whose writes succeed and
// vanish, so a pipeConn over it encodes and flushes for real.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// inlineReadArgs is the decoded argument list of every read the
// benchmark dispatches; shared, so filling a Request allocates nothing.
var inlineReadArgs = []any{int64(1)}

// BenchmarkInlineRead drives a warm v2 read the way the read loop does
// after decoding its line: dispatch → tryInlineQuery → the decision, the
// engine read and the trace append → the pooled answer parked in the
// connection's write buffer. The session's trace is windowed, so every
// append lands in a full window and the count per read is steady. It
// fails if a read is not answered inline.
func BenchmarkInlineRead(b *testing.B) {
	srv := testServer(b, Enforce)
	srv.HistoryWindow = 4
	pc := newPipeConn(srv, context.Background(), discardConn{})
	send := func(id uint64, op string) {
		req := acquireRequest()
		req.ID, req.Op = id, op
		if op == "hello" {
			req.Session = map[string]any{"MyUId": int64(1)}
		} else {
			req.SQL, req.Args = "SELECT EId FROM Attendance WHERE UId = ?", inlineReadArgs
		}
		srv.dispatch(pc, req)
	}
	// The hello and the first, cold, read run on the lane; the reads
	// after them fill the window.
	send(1, "hello")
	send(2, "query")
	pc.wg.Wait()
	for i := 0; i < 8; i++ {
		send(uint64(3+i), "query")
	}
	hits := srv.mInlineHits.Value()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(uint64(100+i), "query")
	}
	b.StopTimer()
	if got := srv.mInlineHits.Value() - hits; got != int64(b.N) {
		b.Fatalf("%d of %d warm reads answered inline", got, b.N)
	}
	_ = pc.flushPending()
	pc.wg.Wait()
}

// inlineReadAllocs is what one warm inline read allocates: the decoded
// argument slice (1), the bound copy of the statement (9, ROADMAP item
// 6) and the engine's read (4); the decision, the trace append into a
// full window and the answer's encode allocate nothing. Pinned, not
// bounded: a change that moves it either way should say why.
const inlineReadAllocs = 14

// TestInlineReadAllocBudget turns BenchmarkInlineRead's -benchmem count
// into a gate.
func TestInlineReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are a CI gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	res := testing.Benchmark(BenchmarkInlineRead)
	if got := res.AllocsPerOp(); got != inlineReadAllocs {
		t.Errorf("warm inline read: %d allocs/op, pinned at %d (%d B/op)",
			got, inlineReadAllocs, res.AllocedBytesPerOp())
	}
}
