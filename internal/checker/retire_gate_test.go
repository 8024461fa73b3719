package checker_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/cq"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// TestWritesRetireFactsGate gates the retirement of stale facts: seeded
// interleavings of reads, decisions and writes (INSERT, UPDATE, DELETE)
// on the cover generator's relations, run through the proxy's statement
// path in Enforce mode. Before each read the reference re-runs every
// statement of the session's trace on the current database, keeps the
// entries whose answer is unchanged, and decides the read with
// CheckCold over those alone. The proxy must never allow what the
// reference blocks. Reads touch one table each, so an entry whose table
// no write touched has an unchanged answer, and a fact usable under the
// write clock is one the reference derives too; a multi-table entry
// whose other table changed keeps its still-true facts under the clock,
// which the entry-grained reference would drop. A failing seed prints
// its steps.
func TestWritesRetireFactsGate(t *testing.T) {
	var st gateStats
	for seed := int64(1); st.steps < 10000; seed++ {
		gateCase(t, seed, &st)
	}
	t.Logf("%+v", st)
	if st.factAllows == 0 || st.retiredBlocks == 0 {
		t.Fatalf("the gate exercised no history-dependent allow or no retirement: %+v", st)
	}
}

// gateStats counts what the gate exercised: decided reads, allows, the
// allows the empty trace would block (factAllows), reads the reference
// blocks and the session's whole trace, stale entries kept, would allow
// (retiredBlocks), and writes that changed a row.
type gateStats struct {
	steps, reads, allows, factAllows, retiredBlocks, writes int
}

func gateCase(t *testing.T, seed int64, st *gateStats) {
	t.Helper()
	ctx := context.Background()
	w := checker.NewGenWorld(seed)
	rng := w.Rand()
	sch := w.Schema(t)
	wr := newWriter(w, sch)
	db := wr.seeded()
	srv := proxy.NewServer(db, w.Checker(sch), proxy.Enforce)
	ref := w.Checker(sch)

	users := drawUsers(w)
	var steps []string
	logf := func(format string, args ...any) { steps = append(steps, fmt.Sprintf(format, args...)) }
	for range 100 {
		st.steps++
		ui := rng.Intn(len(users))
		u := users[ui]
		if rng.Intn(10) < 3 {
			sql := wr.write()
			resp := srv.HandleInCtx(ctx, &proxy.Request{Op: "exec", SQL: sql}, u.sess)
			logf("u%d %s -> affected %d %s", ui, sql, resp.Affected, resp.Error)
			if resp.Affected > 0 {
				st.writes++
			}
			continue
		}
		sql := w.Read()
		sel, needs, err := sqlparser.ParseNeeds(sql)
		if err != nil {
			t.Fatalf("seed %d: generated read does not parse: %v\n%s", seed, err, sql)
		}
		args := w.Call(needs, u.attrs)
		var entries []trace.Entry
		if tr := u.sess.Trace(); tr != nil {
			entries, _ = tr.SnapshotState()
		}
		kept := &trace.Trace{}
		for _, e := range entries {
			if unchanged(db, e) {
				kept.Append(e)
			}
		}
		want := ref.CheckCold(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, kept)
		if kept.Len() < len(entries) && !want.Allowed {
			whole := &trace.Trace{}
			whole.Restore(entries, 0)
			if ref.CheckCold(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, whole).Allowed {
				st.retiredBlocks++
			}
		}
		resp := srv.HandleInCtx(ctx, queryRequest(sql, args), u.sess)
		logf("u%d %s %v %v -> blocked %v %s (reference: allowed %v, %d of %d entries kept)",
			ui, sql, args.Positional, args.Named, resp.Blocked, resp.Error, want.Allowed, kept.Len(), len(entries))
		if resp.Error != "" {
			continue
		}
		st.reads++
		if !resp.Blocked && !want.Allowed {
			t.Fatalf("seed %d: the proxy allowed what the reference blocks: %s\nsession %v\nsteps:\n%s",
				seed, want.Reason, u.attrs, strings.Join(steps, "\n"))
		}
		if resp.Blocked {
			continue
		}
		st.allows++
		if !ref.CheckCold(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, &trace.Trace{}).Allowed {
			st.factAllows++
		}
	}
}

// user is one principal of a gate: its attributes and its session.
type user struct {
	attrs map[string]sqlvalue.Value
	sess  *proxy.Session
}

// drawUsers draws a gate's two principals.
func drawUsers(w *checker.GenWorld) []user {
	users := make([]user, 2)
	for i := range users {
		users[i].attrs = w.Session()
		users[i].sess = proxy.NewSession(users[i].attrs)
	}
	return users
}

// writer draws the gates' writes: an INSERT, UPDATE or DELETE of small
// values, mostly 0 to 2 so that they meet the rows reads touch, on one
// of a world's tables.
type writer struct {
	w      *checker.GenWorld
	rng    *rand.Rand
	sch    *schema.Schema
	tables []*schema.Table
}

func newWriter(w *checker.GenWorld, sch *schema.Schema) *writer {
	return &writer{w: w, rng: w.Rand(), sch: sch, tables: sch.Tables()}
}

// small renders a value literal: 0, 1 or 2, and one time in eight a
// value of the world's pool.
func (wr *writer) small() string {
	v := sqlvalue.NewInt(int64(wr.rng.Intn(3)))
	if wr.rng.Intn(8) == 0 {
		v = wr.w.Value()
	}
	return (&sqlparser.Literal{Value: v}).SQL()
}

func (wr *writer) insert() string {
	tb := wr.tables[wr.rng.Intn(len(wr.tables))]
	vals := make([]string, len(tb.Columns))
	for i := range vals {
		vals[i] = wr.small()
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.Name, strings.Join(vals, ", "))
}

// seeded is a database of the world's tables after six drawn inserts.
func (wr *writer) seeded() *engine.DB {
	db := engine.New(wr.sch)
	for range 6 {
		_, _, _ = db.Exec(wr.insert(), sqlparser.NoArgs)
	}
	return db
}

func (wr *writer) write() string {
	switch tb := wr.tables[wr.rng.Intn(len(wr.tables))]; wr.rng.Intn(3) {
	case 0:
		return wr.insert()
	case 1:
		col := tb.Columns[wr.rng.Intn(len(tb.Columns))].Name
		return fmt.Sprintf("UPDATE %s SET %s = %s WHERE c0 = %s", tb.Name, col, wr.small(), wr.small())
	default:
		return fmt.Sprintf("DELETE FROM %s WHERE c0 = %s", tb.Name, wr.small())
	}
}

// queryRequest is the v2 query request of a read with its arguments.
func queryRequest(sql string, args sqlparser.Args) *proxy.Request {
	req := &proxy.Request{Op: "query", SQL: sql, Named: map[string]any{}}
	for _, v := range args.Positional {
		req.Args = append(req.Args, v)
	}
	for k, v := range args.Named {
		req.Named[k] = v
	}
	return req
}

// unchanged reports whether entry e's statement, run again on db with
// its arguments, returns the answer it returned: the same rows, or the
// same count when the entry kept only the count.
func unchanged(db *engine.DB, e trace.Entry) bool {
	bound, err := sqlparser.Bind(e.Stmt, e.Args)
	if err != nil {
		return false
	}
	res, err := db.Query(bound.(*sqlparser.SelectStmt))
	if err != nil {
		return false
	}
	if e.Omitted > 0 || len(e.Rows) == 0 && len(res.Rows) == 0 {
		return len(res.Rows) == e.RowCount()
	}
	return rendered(res.Rows) == rendered(e.Rows)
}

// rendered renders rows in a canonical order.
func rendered(rows [][]sqlvalue.Value) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// TestSoundnessOracles runs the two soundness oracles over seeded
// interleavings through the proxy's statement path in Enforce mode, on
// a checker whose decision cache is a few entries (so shards fill and
// admission runs) and sessions whose traces keep a few entries (so
// appends evict). The steps mix new reads, reads of an earlier text
// with new arguments (plan reuse), reads that have no plan, writes
// (INSERT, UPDATE, DELETE), policy changes (StagePolicy, Promote,
// Rollback, SetActivePolicy) and ResetCache.
//
//   - Every tier equals cold: the proxy's answer to a read, from
//     whichever tier gave it, is CheckCold's: on the empty history when
//     that allows the read (the history-free tier's answer, which facts
//     can only confirm), else on the session's usable trace (its trace
//     under the write clock, as the read found it). It is the same
//     allow or block and, for a block, the same reason. Half the reads
//     are first decided by Check on the same inputs, which must also
//     give CheckCold's views. An allow the template tier answers from a
//     stored allow is the cover over that allow's justification J alone
//     instead — the same allow, reason and views, byte for byte — and J
//     must be among the session's usable facts, which CheckCold must
//     allow the read on too. A read that has no plan blocks on every
//     path.
//   - An allow is never refuted: for every allowed read, each disjunct
//     of the read with its arguments bound has no counterexample
//     (diagnose.FindCounterexample) under the active policy and the
//     session's usable facts. Each search is bounded by a step budget
//     (cq.EvalSteps), not a clock; a search that runs out counts as
//     finding nothing.
//
// A failing seed prints its steps.
func TestSoundnessOracles(t *testing.T) {
	var st oracleStats
	for seed := int64(1); st.steps < 6000; seed++ {
		oracleCase(t, seed, &st)
	}
	t.Logf("%+v", st)
	if st.allows == 0 || st.tierChecks == 0 || st.justHits == 0 || st.refused == 0 || st.reused == 0 || st.repeated == 0 || st.promotes == 0 ||
		st.searched == 0 || st.evicting == 0 || st.writes == 0 {
		t.Fatalf("the oracles left a step kind unexercised: %+v", st)
	}
}

// oracleStats counts what the oracles exercised: steps, decided reads,
// allows, reads first decided through Check (tierChecks) and those of
// them the template tier allowed under a justification (justHits),
// reads of a text read before with new arguments (reused) and with the
// same ones (repeated), reads with no plan (refused),
// writes that changed a row, promotes that took, searches for a
// counterexample (searched) and those that ran out of steps
// (outOfSteps), and reads decided on a full history window (evicting).
type oracleStats struct {
	steps, reads, allows, tierChecks, justHits, reused, repeated, refused, writes, promotes int
	searched, outOfSteps, evicting                                                          int
}

// oracleSearchSteps bounds each counterexample search in candidate
// tuples (cq.EvalSteps).
const oracleSearchSteps = 200_000

func oracleCase(t *testing.T, seed int64, st *oracleStats) {
	t.Helper()
	ctx := context.Background()
	w := checker.NewGenWorld(seed)
	rng := w.Rand()
	sch := w.Schema(t)
	base := w.Policy(sch)
	chk := checker.NewWithOptions(base, checker.Options{CacheSize: 16 << rng.Intn(3)})
	wr := newWriter(w, sch)
	db := wr.seeded()
	srv := proxy.NewServer(db, chk, proxy.Enforce)
	srv.HistoryWindow = 1 + rng.Intn(4)
	srv.Logf = func(string, ...any) {} // policy steps and shadow diffs are in the step list

	users := drawUsers(w)
	type read struct {
		sql     string
		refused bool            // no plan
		args    *sqlparser.Args // the arguments it was read with
		user    int             // by users[user]
	}
	var reads, allowed []read
	var steps []string
	logf := func(format string, args ...any) { steps = append(steps, fmt.Sprintf(format, args...)) }
	fail := func(format string, args ...any) {
		t.Fatalf("seed %d: %s\nsteps:\n%s", seed, fmt.Sprintf(format, args...), strings.Join(steps, "\n"))
	}
	for range 80 {
		st.steps++
		ui := rng.Intn(len(users))
		u := users[ui]
		switch n := rng.Intn(100); {
		case n < 15:
			sql := wr.write()
			resp := srv.HandleInCtx(ctx, &proxy.Request{Op: "exec", SQL: sql}, u.sess)
			logf("u%d %s -> affected %d %s", ui, sql, resp.Affected, resp.Error)
			if resp.Affected > 0 {
				st.writes++
			}
			continue
		case n < 20:
			var err error
			switch rng.Intn(4) {
			case 0:
				var pv checker.PolicyVersion
				pol := w.DrawPolicy(sch)
				pv, err = chk.StagePolicy(pol)
				logf("stage epoch %d:\n%s", pv.Epoch, pol)
			case 1:
				var pv checker.PolicyVersion
				if pv, err = srv.PromotePolicy(); err == nil {
					st.promotes++
				}
				logf("promote epoch %d", pv.Epoch)
			case 2:
				_, err = srv.RollbackPolicy()
				logf("rollback")
			default:
				pol := base
				if rng.Intn(2) == 0 {
					pol = w.DrawPolicy(sch)
				}
				var pv checker.PolicyVersion
				pv, _, err = chk.SetActivePolicy(pol)
				logf("set active epoch %d:\n%s", pv.Epoch, pol)
			}
			if err != nil && !errors.Is(err, checker.ErrNoCandidate) {
				fail("policy change: %v", err)
			}
			continue
		case n < 22:
			chk.ResetCache()
			logf("reset cache")
			continue
		}
		// A read: one time in five a text read before, with new
		// arguments; one time in ten an earlier allowed read again by its
		// user, arguments and all, which a cached template can answer, or
		// has to decide again on the facts the user's session now holds;
		// one time in twenty a
		// read with no plan; else a new read.
		var rd read
		switch n := rng.Intn(20); {
		case n < 4 && len(reads) > 0:
			rd = reads[rng.Intn(len(reads))]
			rd.args = nil
			st.reused++
		case n >= 18 && len(allowed) > 0:
			rd = allowed[rng.Intn(len(allowed))]
			ui, u = rd.user, users[rd.user]
			st.repeated++
		case n == 4:
			rd = read{sql: w.RefusedRead(), refused: true}
		default:
			rd = read{sql: w.Read()}
		}
		sql := rd.sql
		sel, needs, err := sqlparser.ParseNeeds(sql)
		if err != nil {
			fail("generated read does not parse: %v\n%s", err, sql)
		}
		if rd.args == nil {
			args := w.Call(needs, u.attrs)
			rd.args, rd.user = &args, ui
		}
		reads = append(reads, rd)
		args := *rd.args
		tr := u.sess.Trace()
		if tr == nil {
			tr = &trace.Trace{} // the session's trace is built at its first request
		}
		if tr.Len() == srv.HistoryWindow {
			st.evicting++
		}
		facts := tr.Facts(sch)
		// The tiers answer a read the empty history allows with that
		// decision (history-free), and any other with the decision on
		// the usable trace; an allow of the empty history stands under
		// every trace.
		want := chk.CheckCold(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, nil)
		withFacts := chk.CheckCold(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, tr)
		if !want.Allowed {
			want = withFacts
		} else if !withFacts.Allowed {
			fail("u%d %s %v %v: the empty history allows it, the usable trace blocks it: %s", ui, sql, args.Positional, args.Named, withFacts.Reason)
		}
		if rng.Intn(2) == 0 {
			st.tierChecks++
			got := chk.Check(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, tr)
			tierWant, from := want, "CheckCold"
			if got.Tier == checker.TierTemplate && got.Allowed {
				// With a trace the history-free tier answers an empty
				// history's allow, so this is an allow stored under a
				// justification.
				st.justHits++
				just, ok, err := chk.Justification(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, tr)
				if err != nil || !ok {
					fail("u%d %s %v %v: a template-tier allow with no justification among the session's usable facts (%v)", ui, sql, args.Positional, args.Named, err)
				}
				if !withFacts.Allowed {
					fail("u%d %s %v %v: the template tier allows under justification %v what CheckCold on the usable trace blocks: %s", ui, sql, args.Positional, args.Named, just, withFacts.Reason)
				}
				tierWant = chk.CoverOver(ctx, sel.(*sqlparser.SelectStmt), args, u.attrs, just)
				from = fmt.Sprintf("the cover over its justification %v", just)
			}
			if got.Allowed != tierWant.Allowed || !slices.Equal(got.Views, tierWant.Views) || got.Reason != tierWant.Reason {
				fail("u%d %s %v %v: Check (tier %q) gives allowed %v views %v (%s); %s gives allowed %v views %v (%s)",
					ui, sql, args.Positional, args.Named, got.Tier, got.Allowed, got.Views, got.Reason, from, tierWant.Allowed, tierWant.Views, tierWant.Reason)
			}
		}
		resp := srv.HandleInCtx(ctx, queryRequest(sql, args), u.sess)
		logf("u%d %s %v %v -> blocked %v %s %s (cold: allowed %v %s)",
			ui, sql, args.Positional, args.Named, resp.Blocked, resp.Reason, resp.Error, want.Allowed, want.Reason)
		st.reads++
		if rd.refused {
			st.refused++
			if !resp.Blocked || want.Allowed {
				fail("a read with no plan was not blocked")
			}
		}
		if resp.Blocked == want.Allowed || resp.Blocked && resp.Reason != want.Reason {
			fail("the proxy's answer is not CheckCold's")
		}
		if resp.Blocked {
			continue
		}
		st.allows++
		allowed = append(allowed, rd)
		if ce := refute(ctx, sch, chk.Policy(), sel.(*sqlparser.SelectStmt), needs, args, u.attrs, facts, st); ce != "" {
			fail("the allowed read (%s) has a counterexample under session %v and policy\n%sfacts %v\n%s", want.Reason, u.attrs, chk.Policy(), facts, ce)
		}
	}
}

// refute searches every disjunct of the read, with its arguments (and
// the session attributes it names and they lack) bound, for a
// counterexample under pol and facts, each within oracleSearchSteps
// candidate tuples. It returns the first one rendered, or "".
func refute(ctx context.Context, sch *schema.Schema, pol *policy.Policy, sel *sqlparser.SelectStmt, needs sqlparser.Needs, args sqlparser.Args, session map[string]sqlvalue.Value, facts []cq.Fact, st *oracleStats) string {
	resolved := sqlparser.Args{Positional: args.Positional, Named: map[string]sqlvalue.Value{}}
	for _, n := range needs.Named {
		if v, ok := args.Named[n]; ok {
			resolved.Named[n] = v
		} else {
			resolved.Named[n] = session[n]
		}
	}
	bound, err := sqlparser.Bind(sel, resolved)
	if err != nil {
		return ""
	}
	ucq, err := (&cq.Translator{Schema: sch}).TranslateSelect(bound.(*sqlparser.SelectStmt))
	if err != nil {
		return ""
	}
	for _, q := range ucq {
		st.searched++
		budget := &stepBudget{Context: ctx, start: cq.EvalSteps(), n: oracleSearchSteps}
		if ce, ok := diagnose.FindCounterexample(budget, sch, pol, session, q, facts); ok {
			return fmt.Sprintf("disjunct %s\n%s", q, ce)
		}
		if budget.Err() != nil {
			st.outOfSteps++
		}
	}
	return ""
}

// stepBudget is a context that turns Canceled once evaluations have
// tried more than n candidate tuples (cq.EvalSteps) since start: a
// bound on a search's work that no clock or neighbouring load can
// move.
type stepBudget struct {
	context.Context
	start, n int64
}

func (c *stepBudget) Err() error {
	if cq.EvalSteps()-c.start > c.n {
		return context.Canceled
	}
	return nil
}
