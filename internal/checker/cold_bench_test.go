package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pipeline"
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

// Cold allocation budgets. With statement plans a cold decide copies
// its templates into pooled arrays and keys its caches from the slot
// vector, so what still allocates is what outlives the decision: the
// two cache entries and their key strings, the front-cache entry, the
// decision's Views and Reason (measured 8 per decide without facts; 18
// on the blocked decide over 48 facts, most of them the block reason's
// rendering of the uncovered atom). The commit before plans measured 238
// and 249 against budgets of 259 and 1155.
const (
	budgetColdAllocs      = 16
	budgetColdFactsAllocs = 32
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

// BenchmarkPlanInstantiate is the per-decision cost statement plans
// leave of "bind and translate": look the plan up, fill the slot
// vector, generalize it, instantiate the templates. It fails — not just
// slows — when that stops being one map probe and zero allocations.
func BenchmarkPlanInstantiate(b *testing.B) {
	for _, tc := range []struct{ name, sql string }{
		{"one-atom", "SELECT Id, A FROM R03 WHERE Owner = ? AND Kind = ? AND Id = ?"},
		{"two-arm-union", coldDecideSQL},
		{"three-way-join", "SELECT a.Id, b.A, c.B FROM R01 a JOIN R02 b ON a.A = b.Id JOIN R03 c ON b.A = c.Id " +
			"WHERE a.Owner = ? AND a.Kind = ? AND b.Kind = ? AND c.Kind = 3 AND a.Id <> ? AND b.A > ? AND c.Id = ?"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := New(coldDecidePolicy(b))
			sel := sqlparser.MustParseSelect(tc.sql)
			args := sqlparser.PositionalArgs(int64(coldDecUID), int64(1), int64(2), int64(coldDecUID), int64(5), int64(6))
			st := &decideState{c: c, ver: c.activeVersion(), sel: sel, args: args, session: session(coldDecUID)}
			plan := c.tr.Plan(sel)
			instantiate := func() {
				st.plan, st.tpl, st.attrsDone = nil, nil, false
				if stageBind(context.Background(), st) != pipeline.Continue || len(st.templates()) != plan.Disjuncts() {
					b.Fatalf("bind: %+v", st.d)
				}
				if st.plan != plan || plan.Fallback() {
					b.Fatal("the statement was planned again, or has no plan")
				}
			}
			if n := testing.AllocsPerRun(100, instantiate); n != 0 {
				b.Fatalf("instantiation allocates: %v allocs per run", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				instantiate()
			}
		})
	}
}
