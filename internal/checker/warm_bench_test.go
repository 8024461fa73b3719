package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The warm-tier benchmarks below are the PR's allocation contract: the
// proxy-facing decide path (parse-cache hit + CheckBorrowed) must be
// allocation-free on a history-free hit, and the template tier must
// stay inside a pinned budget. TestWarmDecideAllocBudget turns the
// -benchmem numbers into a CI gate.

const warmSQL = "SELECT EId FROM Attendance WHERE UId = ?"

// checkSQLBorrowed is the proxy-facing decide path: a parse-cache hit,
// then CheckBorrowed.
func checkSQLBorrowed(ctx context.Context, c *Checker, sql string, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (Decision, error) {
	sel, err := sqlparser.ParseSelectNorm(sql)
	if err != nil {
		return Decision{}, err
	}
	return c.CheckBorrowed(ctx, sel, args, session, tr), nil
}

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

// BenchmarkWarmDecideHistFree measures the history-free tier through
// the full proxy-facing path (cached parse + borrowed check): every
// iteration is a NEW principal issuing the shared hot template, so only
// the (policy, template) decision can answer. The per-iteration session
// maps and args are pre-built so the benchmark charges only the
// checker. The CI budget test pins this at exactly 0 allocs/op.
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
	if d, err := checkSQLBorrowed(ctx, c, warmSQL, argv[b.N], sessions[b.N], tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := checkSQLBorrowed(ctx, c, warmSQL, argv[i], sessions[i], tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
		if d.Tier != TierHistFree {
			b.Fatalf("iteration %d: want histfree tier, got %q (%+v)", i, d.Tier, d)
		}
	}
}

// BenchmarkWarmDecideRepeat measures one principal repeating the same
// statement with the same arguments through the proxy-facing path
// (cached parse + borrowed check), the hottest shape a session sends.
// The history-free tier answers it; the CI budget test pins this at
// exactly 0 allocs/op.
func BenchmarkWarmDecideRepeat(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	args := sqlparser.PositionalArgs(1)
	sess := session(1)
	if d, err := checkSQLBorrowed(ctx, c, warmSQL, args, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	if d, _ := checkSQLBorrowed(ctx, c, warmSQL, args, sess, tr); d.Tier != TierHistFree {
		b.Fatalf("prime: want histfree tier, got %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := checkSQLBorrowed(ctx, c, warmSQL, args, sess, tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
	}
}

// BenchmarkWarmDecideHistFreeSafe is a repeated history-free hit
// through the safe API, whose only extra cost is the defensive Views
// copy.
func BenchmarkWarmDecideHistFreeSafe(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	args := sqlparser.PositionalArgs(1)
	sess := session(1)
	if d, err := c.CheckSQL(ctx, warmSQL, args, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	if d, _ := c.CheckSQL(ctx, warmSQL, args, sess, tr); d.Tier != TierHistFree {
		b.Fatalf("prime: want histfree tier, got %+v", d)
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

// BenchmarkWarmDecideTemplate measures the template tier: a
// trace-dependent decision (Example 2.1's fetch after its probe) whose
// trace has grown since the allow was stored, so only the allow's
// justification, not the session's whole fact set, can match. Its
// history-free key holds a denial marker (it needs facts), so each hit
// walks bind → histfree → facts → template probe.
func BenchmarkWarmDecideTemplate(b *testing.B) {
	c, tr := warmChecker(b)
	ctx := context.Background()
	const sql = "SELECT * FROM Events WHERE EId=2"
	sess := session(1)
	if d, err := checkSQLBorrowed(ctx, c, sql, sqlparser.NoArgs, sess, tr); err != nil || !d.Allowed {
		b.Fatalf("prime: %+v %v", d, err)
	}
	// Unrelated reads since: the session's facts are no longer the set
	// the allow was decided on.
	before, _ := tr.FactsKeyed(c.tr)
	for uid := int64(2); uid < 6; uid++ {
		q := sqlparser.MustParseSelect(fmt.Sprintf("SELECT Name FROM Users WHERE UId=%d", uid))
		tr.Append(trace.Entry{
			SQL: q.SQL(), Stmt: q, Args: sqlparser.NoArgs,
			Columns: []string{"Name"},
			Rows:    [][]sqlvalue.Value{{sqlvalue.NewText(fmt.Sprint("user", uid))}},
		})
	}
	if after, _ := tr.FactsKeyed(c.tr); len(after) <= len(before) {
		b.Fatalf("the reads added no fact: %d before, %d after", len(before), len(after))
	}
	if d, _ := checkSQLBorrowed(ctx, c, sql, sqlparser.NoArgs, sess, tr); d.Tier != TierTemplate {
		b.Fatalf("prime: want template tier, got %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := checkSQLBorrowed(ctx, c, sql, sqlparser.NoArgs, sess, tr)
		if err != nil || !d.Allowed {
			b.Fatalf("%+v %v", d, err)
		}
	}
}

// Warm-tier allocation budgets, enforced in CI via `make ci`'s
// allocbudget target (and by any plain `go test` run). Both warm tiers
// fill the statement plan's slots and key the cache from them — no AST
// copy, no translation, no rendered template — so a borrowed
// history-free hit allocates nothing, the safe API exactly its Views
// copy, and a template hit nothing either: its facts come from the
// trace's and the generalization memo's caches, and its justification
// is matched by id. Each is an exact contract. A regression (a new
// per-check string, map, or closure on the warm path) fails loudly
// rather than landing silently.
const (
	budgetHistFreeAllocs = 0
	budgetHistFreeSafe   = 1 // the defensive Views copy
	budgetTemplateAllocs = 0
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
		// "front" names the repeated-statement hit at the front of the
		// proxy path; the history-free tier now answers it.
		{"front", BenchmarkWarmDecideRepeat, budgetHistFreeAllocs, true},
		{"histfree", BenchmarkWarmDecideHistFree, budgetHistFreeAllocs, true},
		{"histfree-safe", BenchmarkWarmDecideHistFreeSafe, budgetHistFreeSafe, true},
		{"template", BenchmarkWarmDecideTemplate, budgetTemplateAllocs, true},
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
