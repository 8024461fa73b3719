package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The cold allocation contract. BenchmarkColdDecide is the shape the
// repository benchmark's inproc_cold workload decides (bench/): 16
// relations x 16 views that each pin Owner to the principal and Kind
// to a constant, and a two-arm UNION of point reads whose row ids are
// fresh on every iteration, so every decision misses every cache tier
// and pays the cover search. TestColdDecideAllocBudget turns its
// -benchmem numbers into a CI gate beside the warm budgets.

const (
	coldDecRelations = 16
	coldDecKinds     = 16
	coldDecUID       = 100001
)

func coldDecidePolicy(tb testing.TB) *policy.Policy {
	tb.Helper()
	b := schema.NewBuilder()
	views := map[string]string{}
	for r := 0; r < coldDecRelations; r++ {
		name := fmt.Sprintf("R%02d", r)
		b = b.Table(name).
			NotNullCol("Id", sqlvalue.Int).
			NotNullCol("Owner", sqlvalue.Int).
			NotNullCol("Kind", sqlvalue.Int).
			NotNullCol("A", sqlvalue.Int).
			NotNullCol("B", sqlvalue.Text).
			PK("Id").Done()
		for k := 0; k < coldDecKinds; k++ {
			views[fmt.Sprintf("V%02d_%02d", r, k)] = fmt.Sprintf(
				"SELECT Id, Owner, Kind, A, B FROM %s WHERE Owner = ?MyUId AND Kind = %d", name, k)
		}
	}
	s, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return policy.MustNew(s, views)
}

// coldDecideTrace records nfacts rows the principal has already read:
// prime scans of 8 rows each over successive relations.
func coldDecideTrace(nfacts int) *trace.Trace {
	tr := &trace.Trace{}
	for r := 0; nfacts > 0; r++ {
		sql := fmt.Sprintf("SELECT Id, Owner, Kind, A, B FROM R%02d WHERE Owner = ? AND Kind = ?", r)
		kind := int64(r % coldDecKinds)
		e := trace.Entry{
			SQL: sql, Stmt: sqlparser.MustParseSelect(sql),
			Args:    sqlparser.PositionalArgs(int64(coldDecUID), kind),
			Columns: []string{"Id", "Owner", "Kind", "A", "B"},
		}
		for i := 0; i < 8 && nfacts > 0; i, nfacts = i+1, nfacts-1 {
			id := int64(1000*r + i)
			e.Rows = append(e.Rows, []sqlvalue.Value{
				sqlvalue.NewInt(id), sqlvalue.NewInt(coldDecUID), sqlvalue.NewInt(kind),
				sqlvalue.NewInt(id * 16), sqlvalue.NewText("b"),
			})
		}
		tr.Append(e)
	}
	return tr
}

const coldDecideSQL = "SELECT Id, A FROM R03 WHERE Owner = ? AND Kind = ? AND Id = ? " +
	"UNION SELECT Id, A FROM R08 WHERE Owner = ? AND Kind = ? AND Id = ?"

// benchColdDecide decides the two-arm union b.N times with fresh row
// ids. With facts the second arm reads another owner's rows — the op
// on which the trace matters: the history-free pass blocks, the facts
// are derived, and the search runs again over query atoms plus facts.
func benchColdDecide(b *testing.B, nfacts int) {
	c := New(coldDecidePolicy(b))
	tr := coldDecideTrace(nfacts)
	sel := sqlparser.MustParseSelect(coldDecideSQL)
	sess := session(coldDecUID)
	ctx := context.Background()
	owner2, wantAllowed := int64(coldDecUID), true
	if nfacts > 0 {
		owner2, wantAllowed = coldDecUID+1, false
	}
	argv := make([]sqlparser.Args, b.N+1)
	for i := range argv {
		id := int64(1_000_000 + 2*i)
		argv[i] = sqlparser.PositionalArgs(int64(coldDecUID), int64(i%coldDecKinds), id, owner2, int64((i+5)%coldDecKinds), id+1)
	}
	if d := c.Check(ctx, sel, argv[b.N], sess, tr); d.Allowed != wantAllowed || d.FromCache {
		b.Fatalf("prime: %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := c.Check(ctx, sel, argv[i], sess, tr); d.Allowed != wantAllowed || d.FromCache {
			b.Fatalf("iteration %d: %+v", i, d)
		}
	}
}

func BenchmarkColdDecide(b *testing.B) {
	b.Run("facts=0", func(b *testing.B) { benchColdDecide(b, 0) })
	b.Run("facts=48", func(b *testing.B) { benchColdDecide(b, 48) })
}

// Cold allocation budgets: one third of what the same two shapes cost
// at the commit before the compiled search (779 and 3465 allocs per
// decide, measured with this file on that commit). What remains is
// outside the cover search — binding and translating the statement,
// the canonical template keys, the cached decision, and the block
// reason.
const (
	budgetColdAllocs      = 779 / 3
	budgetColdFactsAllocs = 3465 / 3
)

func TestColdDecideAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are a CI gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	for _, tc := range []struct {
		nfacts int
		budget int64
	}{{0, budgetColdAllocs}, {48, budgetColdFactsAllocs}} {
		res := testing.Benchmark(func(b *testing.B) { benchColdDecide(b, tc.nfacts) })
		if got := res.AllocsPerOp(); got > tc.budget {
			t.Errorf("cold decide, %d facts: %d allocs/op exceeds budget %d (%d B/op)",
				tc.nfacts, got, tc.budget, res.AllocedBytesPerOp())
		}
	}
}
