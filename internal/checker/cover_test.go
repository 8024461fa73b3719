package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// TestCoverEmptyPolicy: a policy with no views compiles to an empty
// plan and blocks every data-revealing query.
func TestCoverEmptyPolicy(t *testing.T) {
	s := calendarSchema(t)
	c := New(policy.MustNew(s, nil))
	comp := c.activeVersion().comp
	if len(comp.views) != 0 || len(comp.byRel) != 0 {
		t.Fatalf("empty policy compiled to %d views, %d index buckets", len(comp.views), len(comp.byRel))
	}
	d := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1", session(1), nil)
	if d.Allowed {
		t.Fatalf("empty policy allowed a data-revealing query: %+v", d)
	}
}

// ghostView hand-builds a view disjunct over a relation the schema
// does not declare (the SQL front door rejects such a view, but a
// policy assembled programmatically can carry one).
func ghostView() *policy.View {
	q := &cq.Query{
		Name:  "VGhost",
		Head:  []cq.Term{cq.V("x")},
		Atoms: []cq.Atom{{Table: "ghost", Args: []cq.Term{cq.V("x"), cq.V("y")}}},
	}
	return &policy.View{Name: "VGhost", CQs: cq.UCQ{q}}
}

// TestCompileAbsentRelation: a view over a relation absent from the
// schema is indexed under its own symbol and never surfaces as a
// candidate — decisions are identical with and without it.
func TestCompileAbsentRelation(t *testing.T) {
	pol := calendarPolicy(t)
	ghosted := pol.Clone()
	ghosted.Views = append(ghosted.Views, ghostView())

	comp := compilePolicy(ghosted.Fingerprint(), ghosted.Disjuncts(nil))
	id, ok := comp.syms.id("ghost")
	if !ok {
		t.Fatal("ghost relation not interned")
	}
	if n := len(comp.byRel[id]); n != 1 {
		t.Fatalf("ghost relation indexes %d views, want 1", n)
	}

	queries := []string{
		"SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT * FROM Events WHERE EId = 2",
		"SELECT Title FROM Events",
	}
	base, with := New(pol), New(ghosted)
	for _, q := range queries {
		dBase := mustCheck(t, base, q, session(1), nil)
		dWith := mustCheck(t, with, q, session(1), nil)
		if fmt.Sprintf("%#v", dBase) != fmt.Sprintf("%#v", dWith) {
			t.Fatalf("ghost view changed the decision for %q:\nwithout: %#v\nwith:    %#v", q, dBase, dWith)
		}
	}
}

// TestCompileDedupesDuplicateViews: the same disjunct (same name,
// same canonical form) appearing twice in a policy is indexed once —
// duplicates can only produce identical candidate embeddings — and
// decisions are unchanged.
func TestCompileDedupesDuplicateViews(t *testing.T) {
	pol := calendarPolicy(t)
	doubled := pol.Clone()
	doubled.Views = append(doubled.Views, pol.Views...)

	uniq := compilePolicy(pol.Fingerprint(), pol.Disjuncts(nil))
	comp := compilePolicy(doubled.Fingerprint(), doubled.Disjuncts(nil))
	if len(comp.views) != len(uniq.views) {
		t.Fatalf("duplicate views not deduped: %d compiled views, want %d",
			len(comp.views), len(uniq.views))
	}

	c := New(doubled)
	d := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1", session(1), nil)
	if !d.Allowed {
		t.Fatalf("doubled policy blocked a V1-covered query: %+v", d)
	}
}

// recordQuery runs a query against the fixture database and appends
// it, with its answer, to the trace — what the proxy does after an
// allowed query.
func recordQuery(t *testing.T, db *engine.DB, tr *trace.Trace, sql string, argv []any) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	args := sqlparser.PositionalArgs(argv...)
	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(bound.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqlvalue.Value, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	tr.Append(trace.Entry{SQL: sql, Stmt: sel, Args: args, Columns: res.Columns, Rows: rows})
}

// primeE1Trace replays a corpus query's priming probe against the
// fixture database so its result enters the history (the same setup
// experiments.RunE1 uses).
func primeE1Trace(t *testing.T, db *engine.DB, w apps.WorkloadQuery) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{}
	if w.PrimeSQL != "" {
		recordQuery(t, db, tr, w.PrimeSQL, w.PrimeArgs)
	}
	return tr
}

// coverInputs binds one check and derives its facts, and returns what
// the cover search would be handed: the decision
// template and the session-generalized trace facts. ok is false when
// binding already decided the check.
func coverInputs(ctx context.Context, c *Checker, sql string, args sqlparser.Args, sess map[string]sqlvalue.Value, tr *trace.Trace) (tpl []*cq.Query, facts []cq.Fact, ok bool) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, nil, false
	}
	st := &decideState{c: c, ver: c.activeVersion(), sel: sel, args: args, session: sess, tr: tr}
	if _, decided := st.bind(); decided || tr != nil && !memoFacts(ctx, st) {
		return nil, nil, false
	}
	return st.templates(), st.facts, true
}

// TestCoverParityFixtures: over every fixture (calendar, hospital,
// employees, forum), CheckCold — the compiled search, and the compiled
// search on the bind-then-translate oracle's templates — returns Decisions
// byte-identical — the answer, the reason string and the covering-view
// list — to the independent reference procedure (cover_ref_test.go) run
// on the same template and facts, on three corpora: the 42 labeled E1
// queries, each behind its own priming probe; the same 42 replayed
// against one trace per fixture that keeps every earlier probe and
// answer (facts accumulate, so view atoms find more rows to land on);
// and the fixture's own policy views and sensitive queries issued as
// queries with no history. An allow that has facts must also decide the
// same over its justification alone (checkJustification).
func TestCoverParityFixtures(t *testing.T) {
	ctx := context.Background()
	total, histAllows := 0, 0
	for _, f := range apps.All() {
		db := f.MustNewDB(24)
		compiled := New(f.Policy())
		// The same search on the templates of the binding that plans
		// replaced: the statement bound and translated per decision
		// (plan_test.go).
		oracle := New(f.Policy())
		views := f.Policy().Disjuncts(nil)
		decide := func(label, sql string, args sqlparser.Args, sess map[string]sqlvalue.Value, tr *trace.Trace) Decision {
			t.Helper()
			sel, err := sqlparser.ParseSelectNorm(sql)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, label, err)
			}
			d := compiled.CheckCold(ctx, sel, args, sess, tr)
			d.Epoch = 0 // the deciding version's stamp, not the cover search's
			got := [2]string{fmt.Sprintf("%#v", d), fmt.Sprintf("%#v", oracleDecide(ctx, oracle, sel, args, sess, tr, true))}
			want := got[0]
			if tpl, facts, ok := coverInputs(ctx, compiled, sql, args, sess, tr); ok {
				want = fmt.Sprintf("%#v", refDecide(views, tpl, facts))
				checkJustification(t, compiled, compiled.activeVersion().comp, tpl, facts, f.Name+"/"+label)
			}
			if got[0] != want || got[1] != want {
				t.Fatalf("%s/%s: searches disagree:\nreference: %s\ncompiled:  %s\nbind-then-translate: %s",
					f.Name, label, want, got[0], got[1])
			}
			total++
			return d
		}
		shared := &trace.Trace{}
		for _, w := range f.Corpus {
			tr := primeE1Trace(t, db, w)
			args := sqlparser.PositionalArgs(w.Args...)
			d := decide(w.Label, w.SQL, args, f.Session(w.UId), tr)
			if w.PrimeSQL != "" && w.WantAllowed {
				// History-dependent allow: a view atom lands on a trace
				// fact, which rule 2 must keep reachable.
				if !d.Allowed {
					t.Fatalf("%s/%s: history-dependent query blocked: %+v", f.Name, w.Label, d)
				}
				histAllows++
			}
			if w.UId == f.Corpus[0].UId {
				// One principal's cumulative history: every probe, and
				// every allowed query with its answer.
				if w.PrimeSQL != "" {
					recordQuery(t, db, shared, w.PrimeSQL, w.PrimeArgs)
				}
				if decide(w.Label+"/cumulative", w.SQL, args, f.Session(w.UId), shared).Allowed {
					recordQuery(t, db, shared, w.SQL, w.Args)
				}
			}
		}
		for name, sql := range f.PolicySQL {
			decide("view/"+name, sql, sqlparser.NoArgs, f.Session(1), nil)
		}
		for name, sql := range f.Sensitive {
			decide("sensitive/"+name, sql, sqlparser.NoArgs, f.Session(1), nil)
		}
	}
	if total < 100 || histAllows == 0 {
		t.Fatalf("corpus too small to be meaningful: %d decisions, %d history-dependent allows", total, histAllows)
	}
	t.Logf("reference/compiled byte-identical over %d decisions (%d history-dependent allows)", total, histAllows)
}

// --- Cold-path benchmark workload:
// 16 relations, views spread evenly across them, a 4-arm UNION query
// with exactly one covering view per arm, decided by CheckCold.

const benchColdTables = 16

func benchColdSchema(tb testing.TB) *schema.Schema {
	tb.Helper()
	b := schema.NewBuilder()
	for i := 0; i < benchColdTables; i++ {
		b = b.Table(fmt.Sprintf("R%d", i)).
			NotNullCol("Id", sqlvalue.Int).
			NotNullCol("Owner", sqlvalue.Int).
			NotNullCol("Val", sqlvalue.Int).
			NotNullCol("K", sqlvalue.Int).
			PK("Id").Done()
	}
	s, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchColdPolicy(s *schema.Schema, n int) *policy.Policy {
	views := make(map[string]string, n)
	for j := 0; j < n; j++ {
		views[fmt.Sprintf("V%03d", j)] = fmt.Sprintf(
			"SELECT Id, Val FROM R%d WHERE Owner = ?MyUId AND K = %d", j%benchColdTables, j)
	}
	return policy.MustNew(s, views)
}

func benchColdQuery() *sqlparser.SelectStmt {
	sql := ""
	for i := 0; i < 4; i++ {
		if i > 0 {
			sql += " UNION "
		}
		sql += fmt.Sprintf("SELECT Id, Val FROM R%d WHERE Owner = ?MyUId AND K = %d AND Id >= 10", i, i)
	}
	return sqlparser.MustParseSelect(sql)
}

// benchColdSession: the uid must not collide with any view's K
// constant, or template generalization folds the constant into the
// parameter and changes the query's meaning.
func benchColdSession() map[string]sqlvalue.Value {
	return map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1_000_001)}
}

// BenchmarkColdPath decides the cold-path workload at 128 policy views.
func BenchmarkColdPath(b *testing.B) {
	s := benchColdSchema(b)
	c := New(benchColdPolicy(s, 128))
	sel := benchColdQuery()
	sess := benchColdSession()
	ctx := context.Background()
	if d := c.CheckCold(ctx, sel, sqlparser.NoArgs, sess, nil); !d.Allowed {
		b.Fatalf("cold workload should be allowed: %+v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CheckCold(ctx, sel, sqlparser.NoArgs, sess, nil)
	}
}
