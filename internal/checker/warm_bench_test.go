package checker

import (
	"context"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The warm-tier benchmarks below are the PR's allocation contract: the
// proxy-facing decide path (parse-cache hit + CheckBorrowed) must be
// allocation-free on a front-cache hit, and the deeper warm tiers must
// stay inside pinned budgets. TestWarmDecideAllocBudget turns the
// -benchmem numbers into a CI gate.

const warmSQL = "SELECT EId FROM Attendance WHERE UId = ?"

// warmChecker returns a checker whose caches are primed so that the
// named tier answers warmSQL for principal 1.
func warmChecker(tb testing.TB) (*Checker, *trace.Trace) {
	tb.Helper()
	c := New(calendarPolicy(tb))
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	return c, tr
}

// BenchmarkWarmDecideFront measures the statement-identity front-cache
// hit through the full proxy-facing path (cached parse + borrowed
// check). The CI budget test pins this at exactly 0 allocs/op.
func BenchmarkWarmDecideFront(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	args := sqlparser.PositionalArgs(1)
	sess := session(1)
	if d, err := c.CheckSQLBorrowed(ctx, warmSQL, args, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	if d, _ := c.CheckSQLBorrowed(ctx, warmSQL, args, sess, tr); d.Tier != TierFront {
		b.Fatalf("prime: want front tier, got %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.CheckSQLBorrowed(ctx, warmSQL, args, sess, tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
	}
}

// BenchmarkWarmDecideFrontSafe is the same hit through the safe API,
// whose only extra cost is the defensive Views copy.
func BenchmarkWarmDecideFrontSafe(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	args := sqlparser.PositionalArgs(1)
	sess := session(1)
	if d, err := c.CheckSQL(ctx, warmSQL, args, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.CheckSQL(ctx, warmSQL, args, sess, tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
	}
}

// BenchmarkWarmDecideHistFree measures the history-free tier: every
// iteration is a NEW principal issuing the shared hot template, so the
// front key misses but the (policy, template) decision answers. The
// per-iteration session maps and args are pre-built so the benchmark
// charges only the checker.
func BenchmarkWarmDecideHistFree(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	sessions := make([]map[string]sqlvalue.Value, b.N+1)
	argv := make([]sqlparser.Args, b.N+1)
	for i := range sessions {
		uid := int64(i + 10)
		sessions[i] = session(uid)
		argv[i] = sqlparser.PositionalArgs(uid)
	}
	// Prime the history-free template with one cold decision.
	if d, err := c.CheckSQLBorrowed(ctx, warmSQL, argv[b.N], sessions[b.N], tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.CheckSQLBorrowed(ctx, warmSQL, argv[i], sessions[i], tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
		if d.Tier != TierHistFree {
			b.Fatalf("iteration %d: want histfree tier, got %q (%+v)", i, d.Tier, d)
		}
	}
}

// BenchmarkWarmDecideTemplate measures the full template tier: a
// trace-dependent decision (the fact-covered Events row) repeated by
// the same principal. It never enters the front cache (it needs
// facts), so each hit walks bind → facts → template probe.
func BenchmarkWarmDecideTemplate(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	const sql = "SELECT * FROM Events WHERE EId=2"
	sess := session(1)
	if d, err := c.CheckSQLBorrowed(ctx, sql, sqlparser.NoArgs, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	if d, _ := c.CheckSQLBorrowed(ctx, sql, sqlparser.NoArgs, sess, tr); d.Tier != TierTemplate {
		b.Fatalf("prime: want template tier, got %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.CheckSQLBorrowed(ctx, sql, sqlparser.NoArgs, sess, tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
	}
}

// Warm-tier allocation budgets, enforced in CI via `make ci`'s
// allocbudget target (and by any plain `go test` run). The front tier
// is the contract the tentpole exists for: ZERO allocations. The
// deeper tiers fill the statement plan's slots and key the cache from
// them — no AST copy, no translation, no rendered template — so a
// template hit allocates nothing either, and a history-free hit only
// what its front-cache entry keeps (the interned signature and the
// Views copy; the benchmark's principals are all new, so the map grows
// too). The budgets pin the measured numbers with little headroom so a
// regression (a new per-check string, map, or closure on the warm path)
// fails loudly rather than landing silently.
const (
	budgetFrontAllocs    = 0
	budgetFrontSafe      = 1 // the defensive Views copy
	budgetHistFreeAllocs = 6 // the front-cache store, measured 2
	budgetTemplateAllocs = 2 // measured 0
)

func TestWarmDecideAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are a CI gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	cases := []struct {
		name   string
		bench  func(*testing.B)
		budget int64
		exact  bool
	}{
		{"front", BenchmarkWarmDecideFront, budgetFrontAllocs, true},
		{"front-safe", BenchmarkWarmDecideFrontSafe, budgetFrontSafe, false},
		{"histfree", BenchmarkWarmDecideHistFree, budgetHistFreeAllocs, false},
		{"template", BenchmarkWarmDecideTemplate, budgetTemplateAllocs, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.bench)
			got := res.AllocsPerOp()
			if tc.exact && got != tc.budget {
				t.Errorf("%s tier: %d allocs/op, contract is exactly %d (%.0f B/op)",
					tc.name, got, tc.budget, float64(res.AllocedBytesPerOp()))
			} else if got > tc.budget {
				t.Errorf("%s tier: %d allocs/op exceeds budget %d (%.0f B/op)",
					tc.name, got, tc.budget, float64(res.AllocedBytesPerOp()))
			}
		})
	}
}
