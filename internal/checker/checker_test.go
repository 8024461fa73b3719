package checker

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

func calendarSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Users").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("Name", sqlvalue.Text).
		PK("UId").Done().
		Table("Events").
		OpaqueCol("EId", sqlvalue.Int).
		NotNullCol("Title", sqlvalue.Text).
		Col("Notes", sqlvalue.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// calendarPolicy is the paper's Example 2.1 policy: V1 and V2.
func calendarPolicy(t testing.TB) *policy.Policy {
	t.Helper()
	s := calendarSchema(t)
	return policy.MustNew(s, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2": "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
	})
}

func session(uid int64) map[string]sqlvalue.Value {
	return map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(uid)}
}

func mustCheck(t *testing.T, c *Checker, sql string, sess map[string]sqlvalue.Value, tr *trace.Trace) Decision {
	t.Helper()
	d, err := c.CheckSQL(context.Background(), sql, sqlparser.NoArgs, sess, tr)
	if err != nil {
		t.Fatalf("check %q: %v", sql, err)
	}
	return d
}

func TestExample21Q1AllowedAlone(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", session(1), nil)
	if !d.Allowed {
		t.Fatalf("Q1 should be allowed by V1: %s", d.Reason)
	}
}

func TestExample21Q2BlockedAlone(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), nil)
	if d.Allowed {
		t.Fatal("Q2 alone must be blocked — nothing ties event 2 to the current user")
	}
}

func TestExample21Q2AllowedWithHistory(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	d := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d.Allowed {
		t.Fatalf("Q2 with Q1 history must be allowed (paper Example 2.1): %s", d.Reason)
	}
	if len(d.Views) == 0 || d.Views[0] != "V2" {
		t.Errorf("expected V2 to cover Q2, got %v", d.Views)
	}
}

// TestHistoryAblationBlocksQ2: without the trace (E3's ablation
// decides with a nil one) Q2 is blocked.
func TestHistoryAblationBlocksQ2(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), nil)
	if d.Allowed {
		t.Fatal("without history Q2 must be blocked")
	}
}

func TestEmptyResultMakesFollowupVacuouslyAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := &trace.Trace{}
	// Probe returned empty: user 1 does NOT attend event 9.
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=9")
	tr.Append(trace.Entry{SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs, Columns: []string{"1"}})
	// A join query that requires that very attendance row returns
	// nothing, hence reveals nothing.
	d := mustCheck(t, c,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1 AND a.EId = 9",
		session(1), tr)
	if !d.Allowed {
		t.Fatalf("vacuous query should be allowed: %s", d.Reason)
	}
}

func TestViewQueriesThemselvesAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	for _, sql := range []string{
		"SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
	} {
		d := mustCheck(t, c, sql, session(1), nil)
		if !d.Allowed {
			t.Errorf("view instantiation %q should be allowed: %s", sql, d.Reason)
		}
	}
}

func TestOtherUsersDataBlocked(t *testing.T) {
	c := New(calendarPolicy(t))
	// Session user is 1; asking for user 2's attendance must block.
	d := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 2", session(1), nil)
	if d.Allowed {
		t.Fatal("another user's attendance must be blocked")
	}
	// And the whole table, too.
	d = mustCheck(t, c, "SELECT * FROM Attendance", session(1), nil)
	if d.Allowed {
		t.Fatal("full table scan must be blocked")
	}
}

func TestProjectionOfViewAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	// Selecting a subset of V2's columns is still covered.
	d := mustCheck(t, c,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		session(1), nil)
	if !d.Allowed {
		t.Fatalf("projection of V2 should be allowed: %s", d.Reason)
	}
}

func TestNarrowedViewAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1 AND e.Title = 'standup'",
		session(1), nil)
	if !d.Allowed {
		t.Fatalf("narrowing a view with a visible-column filter is allowed: %s", d.Reason)
	}
}

func TestInvisibleColumnFilterBlocked(t *testing.T) {
	s := calendarSchema(t)
	// Policy exposing only titles.
	p := policy.MustNew(s, map[string]string{
		"VT": "SELECT Title FROM Events",
	})
	c := New(p)
	// Filtering on the hidden EId must be blocked: the view's answer
	// does not determine which title belongs to event 5.
	d := mustCheck(t, c, "SELECT Title FROM Events WHERE EId = 5", session(1), nil)
	if d.Allowed {
		t.Fatal("filter on invisible column must be blocked")
	}
	// But the plain title listing is allowed.
	d = mustCheck(t, c, "SELECT Title FROM Events", session(1), nil)
	if !d.Allowed {
		t.Fatalf("title listing should be allowed: %s", d.Reason)
	}
}

func TestDecisionTemplatesGeneralizeAcrossUsers(t *testing.T) {
	c := New(calendarPolicy(t))
	d1 := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1", session(1), nil)
	if !d1.Allowed || d1.Tier != "" {
		t.Fatalf("first decision: %+v", d1)
	}
	// Same shape for user 2 must hit the template cache.
	d2 := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 2", session(2), nil)
	if !d2.Allowed || d2.Tier == "" {
		t.Fatalf("second decision should be a cache hit: %+v", d2)
	}
	st := c.Stats()
	if st.CacheHits != 1 || st.Decisions != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCacheDisabled: CheckCold decides with every cache out of the
// way. A key Check has warmed comes back cold, and a key no check has
// seen leaves the decision cache as it was, so Check still decides it cold afterwards.
func TestCacheDisabled(t *testing.T) {
	c := New(calendarPolicy(t))
	ctx := context.Background()
	tr := exampleTrace()
	warm := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	for i := 0; i < 2; i++ {
		c.Check(ctx, warm, sqlparser.NoArgs, session(1), tr)
	}
	if d := c.Check(ctx, warm, sqlparser.NoArgs, session(1), tr); d.Tier != TierHistFree {
		t.Fatalf("the key did not warm: %+v", d)
	}
	decisions := c.Stats().Decisions
	d := c.CheckCold(ctx, warm, sqlparser.NoArgs, session(1), tr)
	if !d.Allowed || d.Tier != "" || d.Epoch != c.activeVersion().epoch {
		t.Fatalf("CheckCold on a warm key: %+v", d)
	}
	if c.Stats().Decisions != decisions {
		t.Fatal("CheckCold counted a decision")
	}

	unseen := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	entries := c.Stats().CacheEntries
	for _, uid := range []int64{1, 5} {
		// Allowed only for the principal the trace shows attending.
		if d := c.CheckCold(ctx, unseen, sqlparser.NoArgs, session(uid), tr); d.Allowed != (uid == 1) {
			t.Fatalf("CheckCold for principal %d: %+v", uid, d)
		}
	}
	if c.Stats().CacheEntries != entries {
		t.Fatalf("CheckCold wrote the decision cache: entries %d -> %d", entries, c.Stats().CacheEntries)
	}
	if d := c.Check(ctx, unseen, sqlparser.NoArgs, session(1), tr); d.Tier != "" {
		t.Fatalf("a key only CheckCold saw was warm: %+v", d)
	}
}

// TestNumericKeyEqualityWarmMatchesCold pins that a cache key cannot
// carry an answer across numeric types: sqlvalue.Value.AppendKey writes
// INTEGER 2 and REAL 2.0 alike, so a decision warmed with one is served
// to the other, and that is sound only while the two decide alike.
// Each statement is warmed with one argument and then asked with
// another; the answer, and the inline probe's when it hits, must be
// CheckCold's, taken as the decision takes it: without the history
// when that allows, and only otherwise with it.
func TestNumericKeyEqualityWarmMatchesCold(t *testing.T) {
	stmts := []string{
		"SELECT EId FROM Attendance WHERE UId = ?",
		"SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = ?",
		"SELECT EId FROM Attendance WHERE UId = 2 AND EId <> ?",
		"SELECT * FROM Events WHERE EId = ?",
		"SELECT * FROM Events WHERE EId <> ?",
		"SELECT * FROM Events WHERE EId < ?",
		"SELECT * FROM Events WHERE EId <= ?",
	}
	vals := []sqlvalue.Value{
		sqlvalue.NewInt(1), sqlvalue.NewReal(1), sqlvalue.NewInt(2), sqlvalue.NewReal(2), sqlvalue.NewReal(1.5),
	}
	// Principal 2 has read that it attends event 2.
	tr := &trace.Trace{}
	probe := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=2 AND EId=2")
	tr.Append(trace.Entry{
		SQL: probe.SQL(), Stmt: probe, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	ctx := context.Background()
	sess := session(2)
	render := func(d Decision) string { return fmt.Sprintf("%v %q %q", d.Allowed, d.Reason, d.Views) }
	var hits, probeHits int
	for _, sql := range stmts {
		sel, err := sqlparser.ParseSelectNorm(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range vals {
			for _, ask := range vals {
				c := New(calendarPolicy(t))
				for i := 0; i < 2; i++ {
					c.Check(ctx, sel, sqlparser.PositionalArgs(warm), sess, tr)
				}
				args := sqlparser.PositionalArgs(ask)
				cold := c.CheckCold(ctx, sel, args, sess, nil)
				if !cold.Allowed {
					cold = c.CheckCold(ctx, sel, args, sess, tr)
				}
				want := render(cold)
				d := c.Check(ctx, sel, args, sess, tr)
				if d.Tier != "" {
					hits++
				}
				if got := render(d); got != want {
					t.Errorf("%s: warmed with %v, asked %v: got %s, cold %s", sql, warm, ask, got, want)
				}
				if d, ok := c.CheckWarmBorrowed(sel, args, sess); ok {
					probeHits++
					if render(d) != want {
						t.Errorf("%s: warmed with %v, asked %v: probe %s, cold %s", sql, warm, ask, render(d), want)
					}
				}
			}
		}
	}
	t.Logf("%d warm answers, %d probe hits", hits, probeHits)
	if hits == 0 || probeHits == 0 {
		t.Fatal("no asked value reached a warm entry: the table pins nothing")
	}
}

func TestNonCQBlockedConservatively(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT Title FROM Events WHERE Notes IS NULL", session(1), nil)
	if d.Allowed {
		t.Fatal("outside-fragment query must be blocked")
	}
	if !strings.Contains(d.Reason, "conservatively") {
		t.Errorf("reason: %s", d.Reason)
	}
}

func TestAggregateOverViewAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	// COUNT over the user's own attendance: covered by V1 (the
	// aggregate reveals no more than the rows themselves).
	d := mustCheck(t, c, "SELECT COUNT(*) FROM Attendance WHERE UId = 1", session(1), nil)
	if !d.Allowed {
		t.Fatalf("count over own attendance should be allowed: %s", d.Reason)
	}
	// COUNT over everyone's attendance: blocked.
	d = mustCheck(t, c, "SELECT COUNT(*) FROM Attendance", session(1), nil)
	if d.Allowed {
		t.Fatal("global count must be blocked")
	}
}

func TestConstantOnlyQueryAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT 1", session(1), nil)
	if !d.Allowed {
		t.Fatalf("constant query reveals nothing: %s", d.Reason)
	}
}

func TestUnsatisfiableQueryAllowed(t *testing.T) {
	c := New(calendarPolicy(t))
	d := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1 AND UId = 2", session(1), nil)
	if !d.Allowed {
		t.Fatalf("unsatisfiable query reveals nothing: %s", d.Reason)
	}
}

func TestJoinAcrossTwoViews(t *testing.T) {
	s := calendarSchema(t)
	p := policy.MustNew(s, map[string]string{
		"VA": "SELECT UId, EId FROM Attendance WHERE UId = ?MyUId",
		"VE": "SELECT EId, Title FROM Events",
	})
	c := New(p)
	// Join of the two views on the shared, visible EId column.
	d := mustCheck(t, c,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		session(1), nil)
	if !d.Allowed {
		t.Fatalf("join across views with visible join column should be allowed: %s", d.Reason)
	}
	if len(d.Views) != 2 {
		t.Errorf("expected two covering views, got %v", d.Views)
	}
}

func TestJoinOnInvisibleColumnBlocked(t *testing.T) {
	s := calendarSchema(t)
	p := policy.MustNew(s, map[string]string{
		"VA": "SELECT UId FROM Attendance WHERE UId = ?MyUId", // EId hidden
		"VE": "SELECT EId, Title FROM Events",
	})
	c := New(p)
	d := mustCheck(t, c,
		"SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1",
		session(1), nil)
	if d.Allowed {
		t.Fatal("join on a column hidden by VA must be blocked")
	}
}

func TestPositionalArgsChecked(t *testing.T) {
	c := New(calendarPolicy(t))
	d, err := c.CheckSQL(context.Background(), "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
		sqlparser.PositionalArgs(1, 2), session(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("parameterized Q1 should be allowed: %s", d.Reason)
	}
}

func TestComparisonPolicyCoverage(t *testing.T) {
	s, err := schema.NewBuilder().
		Table("Employees").
		NotNullCol("Id", sqlvalue.Int).
		NotNullCol("Name", sqlvalue.Text).
		NotNullCol("Age", sqlvalue.Int).
		PK("Id").Done().Build()
	if err != nil {
		t.Fatal(err)
	}
	p := policy.MustNew(s, map[string]string{
		"VAdults": "SELECT Id, Name, Age FROM Employees WHERE Age >= 18",
	})
	c := New(p)
	d := mustCheck(t, c, "SELECT Name FROM Employees WHERE Age >= 60", nil, nil)
	if !d.Allowed {
		t.Fatalf("Age>=60 is inside VAdults (Age>=18): %s", d.Reason)
	}
	d = mustCheck(t, c, "SELECT Name FROM Employees WHERE Age >= 10", nil, nil)
	if d.Allowed {
		t.Fatal("Age>=10 exceeds VAdults and must be blocked")
	}
	d = mustCheck(t, c, "SELECT Name FROM Employees", nil, nil)
	if d.Allowed {
		t.Fatal("unrestricted scan must be blocked")
	}
}

func TestStatsCounts(t *testing.T) {
	c := New(calendarPolicy(t))
	mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1", session(1), nil)
	mustCheck(t, c, "SELECT * FROM Attendance", session(1), nil)
	st := c.Stats()
	if st.Decisions != 2 || st.Allowed != 1 || st.Blocked != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestResetCacheAfterPolicyEdit(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	d := mustCheck(t, c, "SELECT Title FROM Events WHERE EId = 7", session(1), nil)
	if d.Allowed {
		t.Fatal("should block before policy edit")
	}
	if err := p.Add("VAllEvents", "SELECT * FROM Events"); err != nil {
		t.Fatal(err)
	}
	c.ResetCache()
	d = mustCheck(t, c, "SELECT Title FROM Events WHERE EId = 7", session(1), nil)
	if !d.Allowed {
		t.Fatalf("after adding VAllEvents the query should pass: %s", d.Reason)
	}
}

func TestUnionQueryAllDisjunctsMustBeCovered(t *testing.T) {
	c := New(calendarPolicy(t))
	// IN-list splits into disjuncts; one of them (UId=2) is not
	// covered for session user 1.
	d := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId IN (1, 2)", session(1), nil)
	if d.Allowed {
		t.Fatal("partially covered union must be blocked")
	}
	d = mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId IN (1)", session(1), nil)
	if !d.Allowed {
		t.Fatalf("single-branch IN covered by V1: %s", d.Reason)
	}
}

func TestUnionQueryCoverage(t *testing.T) {
	c := New(calendarPolicy(t))
	// A UNION whose arms are each covered is allowed...
	d := mustCheck(t, c,
		"SELECT EId FROM Attendance WHERE UId = 1 UNION SELECT EId FROM Attendance WHERE UId = 1 AND EId = 3",
		session(1), nil)
	if !d.Allowed {
		t.Fatalf("covered union should be allowed: %s", d.Reason)
	}
	// ...and blocked when any arm is not.
	d = mustCheck(t, c,
		"SELECT EId FROM Attendance WHERE UId = 1 UNION SELECT EId FROM Attendance WHERE UId = 2",
		session(1), nil)
	if d.Allowed {
		t.Fatal("union with an uncovered arm must be blocked")
	}
}
