package proxy

import (
	"context"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// BenchmarkWarmEncode measures the v2 serving surface's warm
// steady-state minus the engine scan: a history-free warm-probe decide
// (CheckWarmBorrowed), a pooled Response filled in place, the
// hand-rolled frame encode into a reused scratch buffer, and the
// release back to the pool — exactly the per-request work the inline
// fast path does around executing the query. The engine scan is
// excluded because result rows are freshly materialized by design;
// everything the proxy adds around it is pinned at 0 allocs/op by
// TestWarmEncodeAllocBudget.
func BenchmarkWarmEncode(b *testing.B) {
	srv := testServer(b, Enforce)
	attrs := map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)}
	tr := &trace.Trace{}
	args := sqlparser.PositionalArgs(1)
	sel, err := sqlparser.ParseSelectNorm("SELECT EId FROM Attendance WHERE UId = ?")
	if err != nil {
		b.Fatal(err)
	}
	// Prime the history-free tier, then confirm the warm probe answers.
	if d := srv.Checker.CheckBorrowed(context.Background(), sel, args, attrs, tr); !d.Allowed {
		b.Fatalf("prime: %+v", d)
	}
	if _, ok := srv.Checker.CheckWarmBorrowed(sel, args, attrs); !ok {
		b.Fatal("prime: warm probe missed after a history-free fill")
	}

	// The result set a warm hit would carry, pre-materialized: the
	// benchmark charges the proxy's decide+encode work, not the
	// engine's row building.
	cols := []string{"EId"}
	rows := [][]sqlvalue.Value{{sqlvalue.NewInt(2)}}
	var scratch []byte

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ok := srv.Checker.CheckWarmBorrowed(sel, args, attrs)
		if !ok || !d.Allowed {
			b.Fatalf("warm probe lost the decision: %+v %v", d, ok)
		}
		resp := acquireResponse()
		resp.ID = uint64(i) + 1
		resp.OK = true
		resp.Columns = cols
		resp.Rows = rows
		buf, encOK := appendResponse(scratch[:0], resp)
		if !encOK {
			b.Fatal("fast encoder bailed on the warm response shape")
		}
		scratch = buf[:0]
		releaseResponse(resp)
	}
}

// TestWarmEncodeAllocBudget turns BenchmarkWarmEncode's -benchmem
// number into a CI gate: the pooled encode path end-to-end — warm
// decide through wire bytes — must allocate exactly nothing per
// request. Any regression (a new per-response string, slice, or
// closure) fails loudly here before it shows up as a saturation-knee
// regression.
func TestWarmEncodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are a CI gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	res := testing.Benchmark(BenchmarkWarmEncode)
	if got := res.AllocsPerOp(); got != 0 {
		t.Errorf("warm decide+encode: %d allocs/op, contract is exactly 0 (%d B/op)",
			got, res.AllocedBytesPerOp())
	}
}
