package checker

import (
	"context"
	"testing"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// wideCalendarPolicy is the calendar policy plus an all-events view —
// strictly looser than calendarPolicy, so staging one against the
// other produces predictable divergences.
func wideCalendarPolicy(t testing.TB, s *policy.Policy) *policy.Policy {
	t.Helper()
	return policy.MustNew(s.Schema, map[string]string{
		"V1":         "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2":         "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
		"VAllEvents": "SELECT * FROM Events",
	})
}

// narrowCalendarPolicy drops V2 — strictly tighter than calendarPolicy.
func narrowCalendarPolicy(t testing.TB, s *policy.Policy) *policy.Policy {
	t.Helper()
	return policy.MustNew(s.Schema, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
	})
}

// The ISSUE's regression case: a ResetCache (republish) whose compiled
// fingerprint is unchanged must keep the epoch, so history-free hits
// keep accumulating across it instead of every warm entry dying with
// an epoch bump.
func TestRepublishSameFingerprintKeepsFrontCacheWarm(t *testing.T) {
	c := New(calendarPolicy(t))
	const q = "SELECT EId FROM Attendance WHERE UId = 1"
	tr := &trace.Trace{} // the history-free tier engages for trace-carrying checks
	d0 := mustCheck(t, c, q, session(1), tr)
	d1 := mustCheck(t, c, q, session(1), tr)
	if d1.Tier != TierHistFree {
		t.Fatalf("second identical check should be a histfree hit, got tier %q", d1.Tier)
	}
	hitsBefore := c.mHistFreeHit.Value()
	if hitsBefore == 0 {
		t.Fatal("histfree-hit counter did not rise on the warm check")
	}

	// Republish the SAME policy: fingerprint unchanged, epoch kept.
	c.ResetCache()

	active, _ := c.Versions()
	if active.Epoch != d0.Epoch {
		t.Fatalf("fingerprint-identical republish bumped the epoch: %d -> %d", d0.Epoch, active.Epoch)
	}
	d2 := mustCheck(t, c, q, session(1), tr)
	if d2.Tier != TierHistFree {
		t.Fatalf("histfree tier went cold across a no-op republish: tier %q", d2.Tier)
	}
	if got := c.mHistFreeHit.Value(); got <= hitsBefore {
		t.Fatalf("histfree-hit counter stopped rising across republish: %d -> %d", hitsBefore, got)
	}
	if d2.Epoch != d0.Epoch {
		t.Fatalf("decision epoch changed across a no-op republish: %d -> %d", d0.Epoch, d2.Epoch)
	}
}

func TestRepublishChangedFingerprintBumpsEpochAndInvalidates(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	const q = "SELECT EId FROM Attendance WHERE UId = 1"
	tr := &trace.Trace{}
	d0 := mustCheck(t, c, q, session(1), tr)
	mustCheck(t, c, q, session(1), tr) // warm the history-free tier

	if err := p.Add("VAllEvents", "SELECT * FROM Events"); err != nil {
		t.Fatal(err)
	}
	c.ResetCache()

	active, _ := c.Versions()
	if active.Epoch <= d0.Epoch {
		t.Fatalf("changed fingerprint must bump the epoch: %d -> %d", d0.Epoch, active.Epoch)
	}
	d := mustCheck(t, c, q, session(1), tr)
	if d.Tier != "" {
		t.Fatalf("epoch bump must invalidate warm entries keyed under the old epoch: tier %q", d.Tier)
	}
	if d.Epoch != active.Epoch {
		t.Fatalf("decision epoch %d != active epoch %d", d.Epoch, active.Epoch)
	}
}

func TestShadowDivergenceTighten(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	if _, err := c.StagePolicy(narrowCalendarPolicy(t, p)); err != nil {
		t.Fatal(err)
	}
	// V2 allows the join under the active policy; the narrow candidate
	// (V1 only) blocks it.
	sel := sqlparser.MustParseSelect("SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = 1")
	sd, staged := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), nil)
	if !staged {
		t.Fatal("candidate is staged; CheckShadow must report it")
	}
	if !sd.Active.Allowed || sd.Shadow.Allowed {
		t.Fatalf("want active allow / shadow block, got active=%v shadow=%v", sd.Active.Allowed, sd.Shadow.Allowed)
	}
	if !sd.Diverged || sd.Kind != DivergeTighten {
		t.Fatalf("want tighten divergence, got diverged=%v kind=%q", sd.Diverged, sd.Kind)
	}
}

func TestShadowDivergenceLoosen(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	if _, err := c.StagePolicy(wideCalendarPolicy(t, p)); err != nil {
		t.Fatal(err)
	}
	sel := sqlparser.MustParseSelect("SELECT Title FROM Events")
	sd, staged := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), nil)
	if !staged {
		t.Fatal("candidate is staged; CheckShadow must report it")
	}
	if sd.Active.Allowed || !sd.Shadow.Allowed {
		t.Fatalf("want active block / shadow allow, got active=%v shadow=%v", sd.Active.Allowed, sd.Shadow.Allowed)
	}
	if !sd.Diverged || sd.Kind != DivergeLoosen {
		t.Fatalf("want loosen divergence, got diverged=%v kind=%q", sd.Diverged, sd.Kind)
	}
}

func TestShadowAgreementNoDivergence(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	if _, err := c.StagePolicy(wideCalendarPolicy(t, p)); err != nil {
		t.Fatal(err)
	}
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	sd, _ := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), nil)
	if !sd.Active.Allowed || !sd.Shadow.Allowed || sd.Diverged || sd.Kind != "" {
		t.Fatalf("both policies allow; no divergence expected: %+v", sd)
	}
}

// Epoch tagging: the two halves of a dual-decide must carry their own
// version's epoch, and they must differ.
func TestShadowEpochTagging(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	cand, err := c.StagePolicy(wideCalendarPolicy(t, p))
	if err != nil {
		t.Fatal(err)
	}
	active, _ := c.Versions()
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	sd, _ := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), nil)
	if sd.Active.Epoch != active.Epoch {
		t.Fatalf("active verdict epoch %d != active version epoch %d", sd.Active.Epoch, active.Epoch)
	}
	if sd.Shadow.Epoch != cand.Epoch {
		t.Fatalf("shadow verdict epoch %d != candidate epoch %d", sd.Shadow.Epoch, cand.Epoch)
	}
	if sd.Active.Epoch == sd.Shadow.Epoch {
		t.Fatal("active and candidate must decide under distinct epochs")
	}
}

// Promote keeps the candidate's epoch, so cache entries warmed by
// shadow decisions serve enforcement immediately after the swap.
func TestPromoteServesShadowWarmedCache(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	cand, err := c.StagePolicy(wideCalendarPolicy(t, p))
	if err != nil {
		t.Fatal(err)
	}
	// Dual-decide with a trace so the candidate's history-free entry is
	// warmed (the history-free tier engages for trace-carrying checks).
	tr := &trace.Trace{}
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), tr)

	pv, err := c.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if pv.Epoch != cand.Epoch {
		t.Fatalf("promote must keep the candidate epoch: staged %d, promoted %d", cand.Epoch, pv.Epoch)
	}
	if c.ShadowStaged() {
		t.Fatal("promote must clear the candidate slot")
	}
	d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	if d.Tier != TierHistFree {
		t.Fatalf("post-promote check should hit the shadow-warmed histfree tier, got %q", d.Tier)
	}
	if d.Epoch != pv.Epoch {
		t.Fatalf("post-promote decision epoch %d != promoted epoch %d", d.Epoch, pv.Epoch)
	}
}

func TestRollbackRestoresSingleVersion(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	before, _ := c.Versions()
	if _, err := c.StagePolicy(wideCalendarPolicy(t, p)); err != nil {
		t.Fatal(err)
	}
	pv, err := c.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if pv.Epoch == before.Epoch {
		t.Fatal("rollback should report the discarded candidate, not the active version")
	}
	after, candAfter := c.Versions()
	if after.Epoch != before.Epoch || candAfter != nil {
		t.Fatalf("rollback must restore the pre-stage table: %+v candidate=%v", after, candAfter)
	}
	// Blocked again: the wide candidate is gone.
	d := mustCheck(t, c, "SELECT Title FROM Events", session(1), nil)
	if d.Allowed {
		t.Fatal("rolled-back candidate must not influence decisions")
	}
}

func TestLifecycleErrors(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	if _, err := c.Promote(); err != ErrNoCandidate {
		t.Fatalf("promote without candidate: want ErrNoCandidate, got %v", err)
	}
	if _, err := c.Rollback(); err != ErrNoCandidate {
		t.Fatalf("rollback without candidate: want ErrNoCandidate, got %v", err)
	}
	other := calendarPolicy(t) // distinct *schema.Schema instance
	if _, err := c.StagePolicy(other); err == nil {
		t.Fatal("staging a policy over a different schema object must be rejected")
	}
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	if sd, staged := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), nil); staged {
		t.Fatal("CheckShadow without a candidate must report staged=false")
	} else if !sd.Active.Allowed {
		t.Fatal("active half must still decide when nothing is staged")
	}
}

// A history-dependent decision must dual-decide against one shared
// trace without the halves corrupting each other's fact caches.
func TestShadowWithHistoryTrace(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	if _, err := c.StagePolicy(narrowCalendarPolicy(t, p)); err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	// Example 2.1's Q2: allowed under active (V2 + history), blocked by
	// the V1-only candidate.
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	sd, staged := c.CheckShadowBorrowed(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	if !staged {
		t.Fatal("candidate is staged")
	}
	if !sd.Active.Allowed {
		t.Fatalf("active policy allows Q2 with history: %s", sd.Active.Reason)
	}
	if sd.Shadow.Allowed {
		t.Fatal("V1-only candidate must block Q2")
	}
	if sd.Kind != DivergeTighten {
		t.Fatalf("want tighten, got %q", sd.Kind)
	}
}

// TestMalformedViewsLeftOut: a view with an atom of the wrong arity, or
// with a head or comparison variable no atom binds, reveals nothing
// (cq.Evaluate gives it no rows), so the checker enforces the policy
// without it. Here V4's head variable x9 is bound by no atom; enforcing
// V4 allowed the read, which FindCounterexample then refuted.
func TestMalformedViewsLeftOut(t *testing.T) {
	sch := schema.NewBuilder().Table("r0").
		NotNullCol("c0", sqlvalue.Int).NotNullCol("c1", sqlvalue.Int).PK("c0").Done().MustBuild()
	v4 := &cq.Query{
		Name: "V4",
		Head: []cq.Term{cq.V("x1"), cq.V("x9")},
		Atoms: []cq.Atom{
			{Table: "r0", Args: []cq.Term{cq.V("x1"), cq.V("x2")}},
			{Table: "r0", Args: []cq.Term{cq.V("x3"), cq.V("x4")}},
		},
	}
	wrongArity := &cq.Query{
		Name:  "V5",
		Head:  []cq.Term{cq.V("x1")},
		Atoms: []cq.Atom{{Table: "r0", Args: []cq.Term{cq.V("x1")}}},
	}
	for _, q := range []*cq.Query{v4, wrongArity} {
		if q.WellFormed(sch) {
			t.Fatalf("%s is malformed over %s", q, sch)
		}
		pol := &policy.Policy{Schema: sch, Views: []*policy.View{{Name: q.Name, SQL: q.String(), CQs: cq.UCQ{q}}}}
		sel := sqlparser.MustParseSelect("SELECT t0.c0 FROM r0 t0 WHERE t0.c0 <= t0.c0")
		if d := New(pol).CheckCold(context.Background(), sel, sqlparser.NoArgs, nil, nil); d.Allowed {
			t.Errorf("%s: allowed (%s), want blocked: the view reveals nothing", q, d.Reason)
		}
	}
}
