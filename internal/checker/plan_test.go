package checker

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Plan-vs-oracle differential tests. The oracle is the path statement
// plans replaced — bind a copy of the AST, translate it, generalize the
// constants, per call (bindTranslate) — followed by the same cover
// search, with no cache (oracleDecide). Statements come from the cover
// generator (cover_gen_test.go): its conjunctive queries are rendered as
// SQL over a schema with the generator's relations, with every ground
// term turned into a value site of a randomly chosen kind, and the values
// of one call are drawn from the generator's own tiny pools — so two
// slots with equal values, a slot equal to a literal or to a session
// attribute, cross-type equals and NULLs all happen constantly, not by
// luck. Now and then a statement also gets a bare parameter as a whole
// condition, which no plan accepts: on those the plan side may only be
// tighter than the oracle.

// bindTranslate binds the call's arguments — the session's attributes
// under them — into a copy of the statement, translates the copy and
// generalizes its constants into st.tpl. decided reports a call that
// binding or translating already decides, as d.
func bindTranslate(st *decideState) (d Decision, decided bool) {
	args := st.args
	if len(st.session) > 0 {
		merged := make(map[string]sqlvalue.Value, len(args.Named)+len(st.session))
		for k, v := range st.session {
			merged[k] = v
		}
		for k, v := range args.Named {
			merged[k] = v
		}
		args = sqlparser.Args{Positional: args.Positional, Named: merged}
	}
	bound, err := sqlparser.Bind(st.sel, args)
	if err != nil {
		return Decision{Reason: fmt.Sprintf("bind: %v", err)}, true
	}
	ucq, err := st.c.tr.TranslateSelect(bound.(*sqlparser.SelectStmt))
	if err != nil {
		return Decision{Reason: fmt.Sprintf("blocked conservatively: %v", err)}, true
	}
	st.tpl = make([]*cq.Query, len(ucq))
	for i, q := range ucq {
		st.tpl[i] = generalizeConsts(q, st.session)
	}
	return Decision{}, false
}

// oracleDecide decides from bindTranslate's templates what c decides
// from the plan: Check's verdict (a history-free allow
// first, then the search with the trace's facts), or with cold set
// CheckCold's (the search with the facts only). It reads and writes no
// decision cache.
func oracleDecide(ctx context.Context, c *Checker, sel *sqlparser.SelectStmt, args sqlparser.Args, sess map[string]sqlvalue.Value, tr *trace.Trace, cold bool) Decision {
	st := &decideState{c: c, ver: c.activeVersion(), sel: sel, args: args, session: sess, tr: tr}
	if d, decided := bindTranslate(st); decided {
		return d
	}
	occ := make([]cq.Census, len(st.tpl))
	for i, q := range st.tpl {
		occ[i].Build(q)
	}
	if !cold && tr != nil {
		if d := c.coverAll(ctx, st.ver.comp, st.tpl, occ, nil, st.coverScratch()); d.Allowed {
			return d
		}
	}
	if tr != nil {
		memoFacts(ctx, st)
	}
	return c.coverAll(ctx, st.ver.comp, st.tpl, occ, st.facts, st.coverScratch())
}

// schema declares the generator's relations: r<i>(c0 .. c<arity-1>).
func (g *coverGen) schema(tb testing.TB) *schema.Schema {
	b := schema.NewBuilder()
	for rel, n := range g.arity {
		t := b.Table(fmt.Sprintf("r%d", rel))
		for k := 0; k < n; k++ {
			t = t.Col(fmt.Sprintf("c%d", k), sqlvalue.Int)
		}
		b = t.PK("c0").Done()
	}
	s, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// value draws one argument or session value from the generator's
// ground pool, plus NULL.
func (g *coverGen) value() sqlvalue.Value {
	if g.rng.Intn(15) == 0 {
		return sqlvalue.NewNull()
	}
	for {
		if t := g.ground(); t.IsConst() {
			return t.Const
		}
	}
}

func sqlLiteral(v sqlvalue.Value) string {
	switch v.Type() {
	case sqlvalue.Int:
		return strconv.FormatInt(v.Int(), 10)
	case sqlvalue.Real:
		return strconv.FormatFloat(v.Real(), 'f', 1, 64)
	case sqlvalue.Text:
		return "'" + v.Text() + "'"
	}
	return "NULL"
}

// sessionAttrs are the names a generated session may carry; a statement
// that names one takes the session's value unless the call overrides it.
var sessionAttrs = []string{"MyUId", "Org", "P", "Q"}

// genStmt is a generated statement and what one call of it must supply.
type genStmt struct {
	sql   string
	npos  int
	named []string // distinct ?names in the text
}

// stmtRender renders the generator's queries as SQL.
type stmtRender struct {
	g     *coverGen
	npos  int
	named map[string]bool
}

// site renders one ground term as a value site: the literal, a
// positional or named placeholder, or a session attribute's name.
func (r *stmtRender) site(t cq.Term) string {
	g := r.g
	if t.IsParam() {
		r.named[t.Name] = true
		return "?" + t.Name
	}
	switch n := g.rng.Intn(10); {
	case n < 3:
		return sqlLiteral(t.Const)
	case n < 5 || r.npos == 0:
		r.npos++
		return "$" + strconv.Itoa(r.npos)
	case n < 6:
		return "$" + strconv.Itoa(1+g.rng.Intn(r.npos)) // a placeholder used twice
	case n < 8:
		name := []string{"a", "b"}[g.rng.Intn(2)]
		r.named[name] = true
		return "?" + name
	default:
		name := sessionAttrs[g.rng.Intn(2)]
		r.named[name] = true
		return "?" + name
	}
}

// selectSQL renders one conjunctive query as a SELECT of width columns
// (0: as many as the query has head variables, at least one).
func (r *stmtRender) selectSQL(q *cq.Query, width int) (string, int) {
	g := r.g
	col := map[string]string{} // variable -> the first column it names
	var from, where []string
	for ai, a := range q.Atoms {
		from = append(from, fmt.Sprintf("%s t%d", a.Table, ai))
		for k, t := range a.Args {
			c := fmt.Sprintf("t%d.c%d", ai, k)
			switch first, seen := col[t.Name]; {
			case !t.IsVar() && g.rng.Intn(6) == 0:
				where = append(where, fmt.Sprintf("%s IN (%s, %s, %s)", c, r.site(t), r.site(g.ground()), r.site(g.ground())))
			case !t.IsVar():
				where = append(where, c+" = "+r.site(t))
			case seen:
				where = append(where, c+" = "+first)
			default:
				col[t.Name] = c
			}
		}
	}
	operand := func(t cq.Term) string {
		if t.IsVar() {
			return col[t.Name]
		}
		return r.site(t)
	}
	for _, c := range q.Comps {
		if l, rt := operand(c.Left), operand(c.Right); l != "" && rt != "" {
			where = append(where, l+" "+c.Op.String()+" "+rt)
		}
	}
	var items []string
	for _, t := range q.Head {
		if c := col[t.Name]; c != "" {
			items = append(items, c)
		}
	}
	if width == 0 {
		width = max(len(items), 1)
	}
	for len(items) < width {
		items = append(items, r.site(g.ground())) // a value in the select list
	}
	sql := "SELECT " + strings.Join(items[:width], ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql, width
}

// statement renders a union of the given queries.
func (g *coverGen) statement(qs []*cq.Query) genStmt {
	r := &stmtRender{g: g, named: map[string]bool{}}
	var arms []string
	width := 0
	for _, q := range qs {
		var arm string
		arm, width = r.selectSQL(q, width)
		arms = append(arms, arm)
	}
	st := genStmt{sql: strings.Join(arms, " UNION "), npos: r.npos}
	for _, n := range append([]string{"a", "b"}, sessionAttrs...) {
		if r.named[n] {
			st.named = append(st.named, n)
		}
	}
	return st
}

// bareCondition appends, one time in six, a bare positional parameter
// as a whole condition to the statement's last arm, and returns its
// position (0: none).
func (g *coverGen) bareCondition(st *genStmt) int {
	if g.rng.Intn(6) > 0 {
		return 0
	}
	return st.addBareCondition()
}

// addBareCondition appends a bare positional parameter as a whole
// condition to the statement's last arm, and returns its position.
func (st *genStmt) addBareCondition() int {
	st.npos++
	arm := st.sql[strings.LastIndex(st.sql, " UNION ")+1:]
	if strings.Contains(arm, " WHERE ") {
		st.sql += " AND $" + strconv.Itoa(st.npos)
	} else {
		st.sql += " WHERE $" + strconv.Itoa(st.npos)
	}
	return st.npos
}

// setArg sets a call's positional argument pos (1-based; 0 or one the
// call lacks: nothing).
func setArg(args sqlparser.Args, pos int, v sqlvalue.Value) {
	if pos > 0 && pos <= len(args.Positional) {
		args.Positional[pos-1] = v
	}
}

// call draws one call's arguments and session for the statement. Now
// and then an argument is missing, so both paths must block with Bind's
// message.
func (g *coverGen) call(st genStmt) (sqlparser.Args, map[string]sqlvalue.Value) {
	sess := map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(int64(g.rng.Intn(3)))}
	for _, n := range sessionAttrs[1:] {
		if g.rng.Intn(3) > 0 {
			sess[n] = g.value()
		}
	}
	var args sqlparser.Args
	npos := st.npos
	if npos > 0 && g.rng.Intn(40) == 0 {
		npos--
	}
	for i := 0; i < npos; i++ {
		args.Positional = append(args.Positional, g.value())
	}
	for _, n := range st.named {
		_, inSession := sess[n]
		if (!inSession && g.rng.Intn(40) > 0) || g.rng.Intn(4) == 0 {
			if args.Named == nil {
				args.Named = map[string]sqlvalue.Value{}
			}
			args.Named[n] = g.value() // overrides the session's value when it has one
		}
	}
	return args, sess
}

// history records up to two single-relation reads with made-up answers.
func (g *coverGen) history() *trace.Trace {
	tr := &trace.Trace{}
	for n := g.rng.Intn(3); n > 0; n-- {
		rel := g.rng.Intn(len(g.arity))
		sql := fmt.Sprintf("SELECT * FROM r%d WHERE c0 = $1", rel)
		e := trace.Entry{SQL: sql, Stmt: sqlparser.MustParseSelect(sql), Args: sqlparser.Args{Positional: []sqlvalue.Value{g.value()}}}
		for rows := g.rng.Intn(3); rows > 0; rows-- {
			row := []sqlvalue.Value{e.Args.Positional[0]}
			for len(row) < g.arity[rel] {
				row = append(row, g.value())
			}
			e.Rows = append(e.Rows, row)
		}
		tr.Append(e)
	}
	return tr
}

// tplString renders a template for comparison. One orientation is not
// pinned: an = or <> between two values with the same key (2 and 2.0)
// keeps whatever order its operands had in the source on the oracle's
// side and slot order on the plan's, so such a pair is ordered by
// spelling here.
func tplString(q *cq.Query) string {
	c := *q
	c.Comps = append([]cq.Comparison(nil), q.Comps...)
	for i, cmp := range c.Comps {
		if (cmp.Op == cq.Eq || cmp.Op == cq.Ne) && cmp.Left.Key() == cmp.Right.Key() && cmp.Left.String() > cmp.Right.String() {
			c.Comps[i].Left, c.Comps[i].Right = cmp.Right, cmp.Left
		}
	}
	s := c.String()
	if c.AggApprox {
		s += " |agg"
	}
	return s
}

func tplStrings(tpl []*cq.Query) string {
	var parts []string
	for _, q := range tpl {
		parts = append(parts, tplString(q))
	}
	return strings.Join(parts, "\n")
}

// planStats counts what the generated triples exercised. bare counts
// calls of a statement with a bare parameter as a condition, tightened
// those of them the oracle allows.
type planStats struct {
	calls, planned, bindErrs, allowed, generalized, contradictions, cacheHits, warmHits int
	bare, tightened                                                                     int
}

// checkPlanCase runs the differential contract on one seed: a policy, a
// statement, a short history, and several calls of the statement.
func checkPlanCase(t *testing.T, seed int64, stats *planStats) {
	t.Helper()
	ctx := context.Background()
	g, gc := newCoverGen(seed)
	pol := policy.MustNew(g.schema(t), nil)
	var opts Options
	opts.Metrics = obsv.Disabled()
	planned, oracle := NewWithOptions(pol, opts), NewWithOptions(pol, opts)
	for _, c := range []*Checker{planned, oracle} {
		c.vers.Store(&versionTable{active: &polVersion{epoch: 1, fp: "gen", comp: compilePolicy("gen", gc.views), pol: pol}})
	}
	st := g.statement(gc.tpl)
	cond := g.bareCondition(&st)
	sel, err := sqlparser.ParseSelectNorm(st.sql)
	if err != nil {
		t.Fatalf("seed %d: generated statement does not parse: %v\n%s", seed, err, st.sql)
	}
	tr := g.history()
	fail := func(what string, args sqlparser.Args, sess map[string]sqlvalue.Value, got, want string) {
		t.Helper()
		t.Fatalf("seed %d: %s differ\nstatement: %s\nargs:      %v %v\nsession:   %v\nplan:   %s\noracle: %s\n%s",
			seed, what, st.sql, args.Positional, args.Named, sess, got, want, gc)
	}
	for call := 0; call < 2; call++ {
		args, sess := g.call(st)
		setArg(args, cond, sqlvalue.NewInt(int64(min(g.rng.Intn(6), 1)))) // mostly true
		stats.calls++

		// Binding alone: slot vector, generalization, templates.
		pst := &decideState{c: planned, ver: planned.activeVersion(), sel: sel, args: args, session: sess, tr: tr}
		ost := &decideState{c: oracle, ver: oracle.activeVersion(), sel: sel, args: args, session: sess, tr: tr}
		pd, pdecided := pst.bind()
		od, odecided := bindTranslate(ost)
		if cond > 0 {
			// No plan: every call blocks, with Bind's message when it lacks
			// an argument and with the parameter form's error otherwise.
			stats.bare++
			want := planned.tr.Plan(sel).Refusal()
			if strings.HasPrefix(od.Reason, "bind: ") {
				want = od.Reason
			}
			if !pdecided || pd.Reason != want || want == "" {
				fail("bind outcomes of a bare-parameter statement", args, sess, fmt.Sprint(pdecided, " ", pd.Reason), fmt.Sprint(true, " ", want))
			}
		} else if pdecided != odecided || pd.Reason != od.Reason {
			fail("bind outcomes", args, sess, fmt.Sprint(pdecided, " ", pd.Reason), fmt.Sprint(odecided, " ", od.Reason))
		}
		if pdecided {
			stats.bindErrs++
		} else {
			if got, want := tplStrings(pst.templates()), tplStrings(ost.tpl); got != want {
				fail("templates", args, sess, got, want)
			}
			if pst.plan != nil {
				stats.planned++
				// What the trace derives facts from: the same plan, every
				// value written as itself.
				merged := sqlparser.Args{Positional: args.Positional, Named: map[string]sqlvalue.Value{}}
				for k, v := range sess {
					merged.Named[k] = v
				}
				for k, v := range args.Named {
					merged.Named[k] = v
				}
				bound, err := sqlparser.Bind(sel, merged)
				if err != nil {
					t.Fatal(err)
				}
				ucq, err := planned.tr.TranslateSelect(bound.(*sqlparser.SelectStmt))
				if err != nil {
					t.Fatal(err)
				}
				var in cq.Instantiation
				consts := make([]cq.Term, len(pst.raw))
				for i, v := range pst.raw {
					consts[i] = cq.C(v)
				}
				if got, want := tplStrings(pst.plan.Instantiate(&in, pst.raw, consts)), tplStrings(ucq); got != want {
					fail("ungeneralized templates", args, sess, got, want)
				}
				for _, term := range pst.gen {
					if term.IsParam() {
						stats.generalized++
						break
					}
				}
				for _, q := range pst.tpl {
					for _, cmp := range q.Comps {
						if !cmp.Left.IsVar() && !cmp.Right.IsVar() {
							stats.contradictions++
						}
					}
				}
			}
		}

		// The whole decision, twice: cold, then from whatever tier the
		// keys of each side reach. After each, the inline probe: whatever
		// it answers must be the independent reference's answer too.
		for round := 0; round < 2; round++ {
			dp, do := planned.Check(ctx, sel, args, sess, tr), oracleDecide(ctx, oracle, sel, args, sess, tr, false)
			got := fmt.Sprintf("%v %q %q", dp.Allowed, dp.Reason, dp.Views)
			want := fmt.Sprintf("%v %q %q", do.Allowed, do.Reason, do.Views)
			switch {
			case cond > 0 && dp.Allowed && !do.Allowed:
				fail(fmt.Sprintf("bare-parameter statement loosened (round %d)", round), args, sess, got, want)
			case cond > 0:
				if do.Allowed && round == 0 {
					stats.tightened++
				}
			case got != want:
				fail(fmt.Sprintf("decisions (round %d)", round), args, sess, got, want)
			}
			dw, warm := planned.CheckWarmBorrowed(sel, args, sess)
			if warm {
				stats.warmHits++
				if pdecided {
					fail("inline probe on a call bind rejects", args, sess, fmt.Sprintf("%+v", dw), pd.Reason)
				}
			}
			if !pdecided && memoFacts(ctx, pst) {
				// The decision answers from the history-free pass when that
				// allows, and only otherwise looks at the facts.
				dr := refDecide(gc.views, pst.templates(), nil)
				if !dr.Allowed {
					dr = refDecide(gc.views, pst.templates(), pst.facts)
				}
				want := fmt.Sprintf("%v %q %q", dr.Allowed, dr.Reason, dr.Views)
				if got != want {
					fail("decision and the independent reference", args, sess, got, want)
				}
				if w := fmt.Sprintf("%v %q %q", dw.Allowed, dw.Reason, dw.Views); warm && w != want {
					fail("inline probe and the independent reference", args, sess, w, want)
				}
			}
			if dp.Allowed && round == 0 {
				stats.allowed++
			}
			if dp.Tier != "" {
				stats.cacheHits++
			}
		}
	}
}

// TestPlanParityGenerated runs the differential contract over a fixed
// block of seeds, two calls each (FuzzPlanParity explores beyond it).
func TestPlanParityGenerated(t *testing.T) {
	var stats planStats
	seeds := int64(4000)
	if testing.Short() {
		seeds = 400
	}
	for seed := int64(0); seed < seeds; seed++ {
		checkPlanCase(t, seed, &stats)
	}
	t.Logf("%+v", stats)
	// A generator that never reaches a case pins nothing about it.
	switch {
	case stats.planned < stats.calls/2,
		stats.bindErrs < stats.calls/100,
		stats.allowed < stats.calls/20 || stats.allowed > stats.calls*19/20,
		stats.generalized < stats.calls/10,
		stats.contradictions < stats.calls/100,
		stats.cacheHits < stats.calls/2,
		stats.warmHits < stats.calls/20,
		stats.bare < stats.calls/20,
		stats.tightened < stats.calls/100:
		t.Fatalf("generator is lopsided: %+v", stats)
	}
}

// FuzzPlanParity explores generator seeds under the same contract.
func FuzzPlanParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkPlanCase(t, seed, &planStats{})
	})
}

// TestUnplannedStatementsBlock: a statement whose parameter form does
// not translate blocks every call with the translation error, whatever
// the values, and a call that lacks an argument blocks with Bind's
// message. Neither binds nor translates per call: deciding a refused
// statement again allocates nothing, and the inline probe misses it.
func TestUnplannedStatementsBlock(t *testing.T) {
	ctx := context.Background()
	c := New(calendarPolicy(t))
	sess := session(1)
	for _, tc := range []struct {
		sql    string
		args   sqlparser.Args
		reason string // "": Bind's error
	}{
		// A bare parameter as a whole condition, true and false.
		{"SELECT EId FROM Attendance WHERE UId = 1 AND ?", sqlparser.PositionalArgs(1),
			"blocked conservatively: query outside the conjunctive fragment: condition ?"},
		{"SELECT EId FROM Attendance WHERE UId = 1 AND ?", sqlparser.PositionalArgs(0),
			"blocked conservatively: query outside the conjunctive fragment: condition ?"},
		{"SELECT EId FROM Attendance WHERE Nope = 1", sqlparser.NoArgs,
			"blocked conservatively: cq: unknown column .Nope"},
		{"SELECT EId FROM Attendance WHERE UId = ? AND EId IS NULL", sqlparser.PositionalArgs(1),
			"blocked conservatively: query outside the conjunctive fragment: IS NULL"},
		// Planned, but LIMIT's value is missing.
		{"SELECT EId FROM Attendance WHERE UId = ? LIMIT ?", sqlparser.PositionalArgs(1), ""},
	} {
		sel := sqlparser.MustParseSelect(tc.sql)
		if got := c.tr.Plan(sel).Refusal(); got != tc.reason {
			t.Errorf("%s: plan refusal %q, want %q", tc.sql, got, tc.reason)
		}
		want := tc.reason
		if want == "" {
			_, err := sqlparser.Bind(sel, tc.args)
			if err == nil {
				t.Fatalf("%s %v: Bind accepts the call", tc.sql, tc.args.Positional)
			}
			want = "bind: " + err.Error()
		}
		for round := 0; round < 2; round++ {
			if d := c.Check(ctx, sel, tc.args, sess, nil); d.Allowed || d.Reason != want {
				t.Errorf("%s %v (round %d): %+v, want blocked with %q", tc.sql, tc.args.Positional, round, d, want)
			}
		}
		if d, ok := c.CheckWarmBorrowed(sel, tc.args, sess); ok {
			t.Errorf("%s %v: the inline probe answered %+v", tc.sql, tc.args.Positional, d)
		}
		if tc.reason != "" {
			if n := testing.AllocsPerRun(100, func() { c.Check(ctx, sel, tc.args, sess, nil) }); n != 0 {
				t.Errorf("%s: deciding a refused statement again costs %v allocs/op, want 0", tc.sql, n)
			}
		}
	}
	// A literal condition is a value the parameter form can test: planned.
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1 AND 1")
	if r := c.tr.Plan(sel).Refusal(); r != "" {
		t.Errorf("literal condition refused: %s", r)
	}
	if d := c.Check(ctx, sel, sqlparser.NoArgs, sess, nil); !d.Allowed {
		t.Errorf("literal condition: %+v", d)
	}
}

// TestPlanSharedShape: statements that differ only in how their values
// are spelled share a shape, and so one cold decision.
func TestPlanSharedShape(t *testing.T) {
	ctx := context.Background()
	c := New(calendarPolicy(t))
	tr := &trace.Trace{}
	lit := sqlparser.MustParseSelect("SELECT EId FROM Attendance a WHERE a.UId = 4")
	pos := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = $1")
	named := sqlparser.MustParseSelect("SELECT  EId  FROM Attendance WHERE UId = ?MyUId")
	other := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE EId = 4")
	if a, b, c3 := c.tr.Plan(lit).Shape, c.tr.Plan(pos).Shape, c.tr.Plan(named).Shape; a != b || b != c3 || a == c.tr.Plan(other).Shape {
		t.Fatalf("shapes: literal %d, positional %d, named %d, other %d", a, b, c3, c.tr.Plan(other).Shape)
	}
	if d := c.Check(ctx, lit, sqlparser.NoArgs, session(4), tr); !d.Allowed || d.Tier != "" {
		t.Fatalf("cold: %+v", d)
	}
	if d := c.Check(ctx, pos, sqlparser.PositionalArgs(5), session(5), tr); d.Tier != TierHistFree {
		t.Fatalf("positional spelling, another principal: %+v", d)
	}
	if d := c.Check(ctx, named, sqlparser.NoArgs, session(6), tr); d.Tier != TierHistFree {
		t.Fatalf("named spelling: %+v", d)
	}
	// Not the principal's own id: a different template.
	if d := c.Check(ctx, pos, sqlparser.PositionalArgs(5), session(7), tr); d.Allowed {
		t.Fatalf("another user's rows: %+v", d)
	}
}

// TestPlaceholderSpellingsShareDecisions: the parse cache keys the raw
// text, so each placeholder spelling of a statement — `?`, `$N`,
// `?name`, `:name`, in either case — is its own statement and its own
// plan, and the plans meet at one shape. After one spelling is decided,
// another spelling's first decision, in a fresh session, is a
// history-free hit: no cover search runs. CheckSQL is the first to
// parse each text.
func TestPlaceholderSpellingsShareDecisions(t *testing.T) {
	ctx := context.Background()
	c := New(calendarPolicy(t))
	named := sqlparser.NamedArgs(map[string]any{"u": 1, "e": 2})
	spellings := []struct {
		sql  string
		args sqlparser.Args
	}{
		{"SELECT EId FROM Attendance WHERE UId = ? AND EId = ?", sqlparser.PositionalArgs(1, 2)},
		{"SELECT EId FROM Attendance WHERE UId = $1 AND EId = $2", sqlparser.PositionalArgs(1, 2)},
		{"SELECT EId FROM Attendance WHERE UId = ?u AND EId = ?e", named},
		{"SELECT EId FROM Attendance WHERE UId = :u AND EId = :e", named},
		{"select EId from Attendance where UId = :u and EId = :e", named},
	}
	reg := c.Metrics()
	hits := reg.Counter("checker.histfree.hit")
	// Every cover search counts the views it kept or pruned.
	searched := func() int64 {
		return reg.Counter("checker.cold.views.kept").Value() + reg.Counter("checker.cold.views.pruned").Value()
	}
	for i, sp := range spellings {
		h, sv := hits.Value(), searched()
		d, err := c.CheckSQL(ctx, sp.sql, sp.args, session(1), &trace.Trace{})
		if err != nil || !d.Allowed {
			t.Fatalf("%q: %+v, %v", sp.sql, d, err)
		}
		dh, dsv := hits.Value()-h, searched()-sv
		if i == 0 {
			if dh != 0 || dsv == 0 {
				t.Fatalf("%q, the first spelling: histfree hits +%d, views searched +%d; want a cold search", sp.sql, dh, dsv)
			}
		} else if dh != 1 || dsv != 0 || d.Tier != TierHistFree {
			t.Errorf("%q: tier %q, histfree hits +%d, views searched +%d; want a history-free hit",
				sp.sql, d.Tier, dh, dsv)
		}
	}
	var shape uint64
	for i, sp := range spellings {
		sel, err := sqlparser.ParseSelectNorm(sp.sql)
		if err != nil {
			t.Fatalf("%q: %v", sp.sql, err)
		}
		if p := c.tr.Plan(sel); i == 0 {
			shape = p.Shape
		} else if p.Shape != shape || shape == 0 {
			t.Fatalf("%q: shape %d, want %d", sp.sql, p.Shape, shape)
		}
	}
}

// TestPlansSurvivePolicyLifecycle: plans depend on the schema, not the
// policy, so they are reused across stage / promote / rollback and
// ResetCache — and a checker that has been through all of it decides
// exactly as a fresh one over the policy then active.
func TestPlansSurvivePolicyLifecycle(t *testing.T) {
	ctx := context.Background()
	s := calendarSchema(t)
	v1 := map[string]string{"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId"}
	v2 := map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2": "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
	}
	queries := []struct {
		sql  string
		args sqlparser.Args
	}{
		{"SELECT EId FROM Attendance WHERE UId = ?", sqlparser.PositionalArgs(1)},
		{"SELECT EId FROM Attendance WHERE UId = ?", sqlparser.PositionalArgs(2)},
		{"SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", sqlparser.PositionalArgs(1, 2)},
		{"SELECT * FROM Events WHERE EId = ?", sqlparser.PositionalArgs(2)},
		{"SELECT Title FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId", sqlparser.NoArgs},
	}
	tr := &trace.Trace{}
	probe := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{Stmt: probe, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}}})

	long := New(policy.MustNew(s, v1))
	sels := make([]*sqlparser.SelectStmt, len(queries))
	plans := make([]*cq.StmtPlan, len(queries))
	for i, q := range queries {
		sels[i] = sqlparser.MustParseSelect(q.sql)
		plans[i] = long.tr.Plan(sels[i])
	}
	compare := func(step string, views map[string]string) {
		t.Helper()
		fresh := New(policy.MustNew(s, views))
		for round := 0; round < 2; round++ { // cold, then warm on the long-lived side
			for i, q := range queries {
				if long.tr.Plan(sels[i]) != plans[i] {
					t.Fatalf("%s: %q was planned again", step, q.sql)
				}
				got := long.Check(ctx, sels[i], q.args, session(1), tr)
				want := fresh.Check(ctx, sqlparser.MustParseSelect(q.sql), q.args, session(1), tr)
				if got.Allowed != want.Allowed || got.Reason != want.Reason || fmt.Sprint(got.Views) != fmt.Sprint(want.Views) {
					t.Fatalf("%s: %q %v\nlong-lived: %+v\nfresh:      %+v", step, q.sql, q.args.Positional, got, want)
				}
			}
		}
	}
	compare("initial", v1)
	if _, err := long.StagePolicy(policy.MustNew(s, v2)); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries { // shadow traffic warms the candidate's epoch
		long.CheckShadowBorrowed(ctx, sels[i], q.args, session(1), tr)
	}
	compare("staged", v1)
	if _, err := long.Rollback(); err != nil {
		t.Fatal(err)
	}
	compare("rolled back", v1)
	if _, err := long.StagePolicy(policy.MustNew(s, v2)); err != nil {
		t.Fatal(err)
	}
	if _, err := long.Promote(); err != nil {
		t.Fatal(err)
	}
	compare("promoted", v2)
	long.ResetCache()
	compare("reset", v2)
	if _, _, err := long.SetActivePolicy(policy.MustNew(s, v1)); err != nil {
		t.Fatal(err)
	}
	compare("replaced", v1)
}

// TestPlanFirstUseConcurrent: many sessions meet statements nobody has
// planned yet at the same moment (run under -race). Every decision must
// be the serial one, and each statement ends up with exactly one plan.
func TestPlanFirstUseConcurrent(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 8; round++ {
		c := New(calendarPolicy(t))
		sels := []*sqlparser.SelectStmt{
			sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ?"),
			sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId = ?"),
			sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ? UNION SELECT EId FROM Attendance WHERE UId = ?MyUId"),
		}
		const sessions = 16
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, sessions*len(sels))
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(uid int64) {
				defer wg.Done()
				<-start
				for i, sel := range sels {
					d := c.Check(ctx, sel, sqlparser.PositionalArgs(uid), session(uid), &trace.Trace{})
					if want := i != 1; d.Allowed != want {
						errs <- fmt.Sprintf("uid %d, statement %d: %+v", uid, i, d)
					}
				}
			}(int64(s + 1))
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		for _, sel := range sels {
			if p := c.tr.Plan(sel); p != c.tr.Plan(sel) || p.Refusal() != "" {
				t.Fatalf("unstable plan for %s", sel.SQL())
			}
		}
	}
}
