package checker

import (
	"context"
	"fmt"
	"sync/atomic"
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

// coldDecide is one configuration of the cold benchmarks: the checker,
// the statement, the session and its trace, and the expected verdict.
type coldDecide struct {
	c           *Checker
	sel         *sqlparser.SelectStmt
	sess        map[string]sqlvalue.Value
	tr          *trace.Trace
	owner2      int64
	wantAllowed bool
}

// newColdDecide builds the configuration. With facts the second arm
// reads another owner's rows — the op on which the trace matters: the
// history-free pass blocks, the facts are derived, and the search runs
// again over query atoms plus facts. With full, one-off decisions fill
// the decision cache first, so every timed decision meets admission.
func newColdDecide(b *testing.B, nfacts int, full bool) *coldDecide {
	cd := &coldDecide{
		c:    New(coldDecidePolicy(b)),
		tr:   coldDecideTrace(nfacts),
		sel:  sqlparser.MustParseSelect(coldDecideSQL),
		sess: session(coldDecUID), owner2: coldDecUID, wantAllowed: true,
	}
	if nfacts > 0 {
		cd.owner2, cd.wantAllowed = coldDecUID+1, false
	}
	cd.decide(b, -1)
	capacity := cacheShards * cd.c.cache.perShard
	for i := int64(-2); full && cd.c.cache.Len() < capacity; i-- {
		if i < -int64(16*capacity) {
			b.Fatalf("the cache never filled: %d of %d entries", cd.c.cache.Len(), capacity)
		}
		cd.decide(b, i)
	}
	return cd
}

// args returns the arguments of decision i: row ids no other i uses.
func (cd *coldDecide) args(i int64) sqlparser.Args {
	id := 1_000_000 + 2*i
	if i < 0 {
		id = 1_000_000_000 - 2*i
	}
	k := (i%coldDecKinds + coldDecKinds) % coldDecKinds
	return sqlparser.PositionalArgs(int64(coldDecUID), k, id, cd.owner2, (k+5)%coldDecKinds, id+1)
}

// decide decides with decision i's arguments, which must be cold.
func (cd *coldDecide) decide(b *testing.B, i int64) {
	if err := cd.check(i); err != nil {
		b.Fatal(err)
	}
}

func (cd *coldDecide) check(i int64) error {
	if d := cd.c.Check(context.Background(), cd.sel, cd.args(i), cd.sess, cd.tr); d.Allowed != cd.wantAllowed || d.Tier != "" {
		return fmt.Errorf("decision %d: %+v", i, d)
	}
	return nil
}

// benchColdDecide decides the two-arm union b.N times with fresh row
// ids.
func benchColdDecide(b *testing.B, nfacts int, full bool) {
	cd := newColdDecide(b, nfacts, full)
	argv := make([]sqlparser.Args, b.N)
	for i := range argv {
		argv[i] = cd.args(int64(i))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := cd.c.Check(ctx, cd.sel, argv[i], cd.sess, cd.tr); d.Allowed != cd.wantAllowed || d.Tier != "" {
			b.Fatalf("iteration %d: %+v", i, d)
		}
	}
}

func BenchmarkColdDecide(b *testing.B) {
	b.Run("facts=0", func(b *testing.B) { benchColdDecide(b, 0, false) })
	b.Run("facts=48", func(b *testing.B) { benchColdDecide(b, 48, false) })
	b.Run("full/facts=0", func(b *testing.B) { benchColdDecide(b, 0, true) })
	b.Run("full/facts=48", func(b *testing.B) { benchColdDecide(b, 48, true) })
}

// BenchmarkColdDecideParallel decides fresh ids from every goroutine
// at once into a full cache: with -cpu 1,2 it shows whether parallel
// cold decisions scale or contend on the caches' write locks.
func BenchmarkColdDecideParallel(b *testing.B) {
	cd := newColdDecide(b, 0, true)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := cd.check(next.Add(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// Cold allocation budgets. With statement plans a cold decide copies
// its templates into pooled arrays and keys its caches from the slot
// vector, so what still allocates is what outlives the decision: the
// two cache entries and their key strings, the decision's Views and
// Reason (measured 6 per decide without facts; 18
// on the blocked decide over 48 facts, most of them the block reason's
// rendering of the uncovered atom). The commit before plans measured 238
// and 249 against budgets of 259 and 1155. Into a full cache a one-off
// decision is not stored, so only the decision itself allocates
// (measured 3 and 14).
const (
	budgetColdAllocs          = 16
	budgetColdFactsAllocs     = 32
	budgetColdFullAllocs      = 6
	budgetColdFullFactsAllocs = 28
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
		full   bool
		budget int64
	}{
		{0, false, budgetColdAllocs}, {48, false, budgetColdFactsAllocs},
		{0, true, budgetColdFullAllocs}, {48, true, budgetColdFullFactsAllocs},
	} {
		res := testing.Benchmark(func(b *testing.B) { benchColdDecide(b, tc.nfacts, tc.full) })
		if got := res.AllocsPerOp(); got > tc.budget {
			t.Errorf("cold decide, %d facts, full cache %v: %d allocs/op exceeds budget %d (%d B/op)",
				tc.nfacts, tc.full, got, tc.budget, res.AllocedBytesPerOp())
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
				if d, decided := st.bind(); decided || len(st.templates()) != plan.Disjuncts() {
					b.Fatalf("bind: %+v", d)
				}
				if st.plan != plan || plan.Refusal() != "" {
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
