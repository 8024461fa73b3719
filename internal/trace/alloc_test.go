package trace

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Allocation contracts of a windowed trace, on the shapes the bench/
// workloads give it: appending to a full window allocates nothing
// beyond the caller's entry, and deriving the facts of entries whose
// statements yield none (pg_scan's range reads) costs nothing per row.
// TestTraceAllocBudget turns them into a gate (`make allocbudget`).

// benchWindow is the history window of the bench/ workloads.
const benchWindow = 32

func postsSchema(tb testing.TB) *schema.Schema {
	tb.Helper()
	s, err := schema.NewBuilder().
		Table("Posts").
		NotNullCol("PId", sqlvalue.Int).
		NotNullCol("AuthorId", sqlvalue.Int).
		NotNullCol("Body", sqlvalue.Text).
		NotNullCol("Visibility", sqlvalue.Text).
		PK("PId").Done().
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// rangeReads returns n range reads of rows rows each, built up front: a
// statement that projects no AuthorId forces no atom, so it yields no
// fact whatever it returns.
func rangeReads(n, rows int) []Entry {
	sel := sqlparser.MustParseSelect("SELECT PId, Body FROM Posts WHERE Visibility = 'public' AND PId >= $1 AND PId < $2")
	out := make([]Entry, n)
	for i := range out {
		lo := int64(i * rows * 2)
		e := Entry{Stmt: sel, Args: sqlparser.PositionalArgs(lo, lo+int64(rows*2))}
		for r := range rows {
			e.Rows = append(e.Rows, []sqlvalue.Value{sqlvalue.NewInt(lo + int64(2*r+1)), sqlvalue.NewText(fmt.Sprint("post ", r))})
		}
		out[i] = e
	}
	return out
}

// BenchmarkTraceAppendWindowed appends to a full 32-entry window.
func BenchmarkTraceAppendWindowed(b *testing.B) {
	entries := rangeReads(benchWindow+1, 1)
	tr := &Trace{}
	tr.SetWindow(benchWindow)
	for _, e := range entries {
		tr.Append(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(entries[i%len(entries)])
	}
}

// BenchmarkFactsWindowedScan is pg_scan's trace: a full window of range
// reads of 200 rows, and each iteration appends one more and derives the
// session's facts — of which there are none.
func BenchmarkFactsWindowedScan(b *testing.B) {
	ct := &cq.Translator{Schema: postsSchema(b)}
	entries := rangeReads(benchWindow+1, 200)
	tr := &Trace{}
	tr.SetWindow(benchWindow)
	for _, e := range entries {
		tr.Append(e)
	}
	if facts, _ := tr.FactsKeyed(ct); len(facts) != 0 {
		b.Fatalf("range reads yielded facts: %v", facts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(entries[i%len(entries)])
		if facts, _ := tr.FactsKeyed(ct); len(facts) != 0 {
			b.Fatalf("range reads yielded facts: %v", facts)
		}
	}
}

func TestTraceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are a CI gate; skipped in -short")
	}
	for _, tc := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"append-windowed", BenchmarkTraceAppendWindowed},
		{"facts-windowed-scan", BenchmarkFactsWindowedScan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.bench)
			if got := res.AllocsPerOp(); got != 0 {
				t.Errorf("%s: %d allocs/op, contract is exactly 0 (%.0f B/op)", tc.name, got, float64(res.AllocedBytesPerOp()))
			}
		})
	}
}
