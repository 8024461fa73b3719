package checker_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/proxy"
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
	pol := policy.MustNew(sch, nil)
	db := engine.New(sch)
	tables := sch.Tables()
	small := func() string {
		v := sqlvalue.NewInt(int64(rng.Intn(3)))
		if rng.Intn(8) == 0 {
			v = w.Value()
		}
		return (&sqlparser.Literal{Value: v}).SQL()
	}
	insert := func() string {
		tb := tables[rng.Intn(len(tables))]
		vals := make([]string, len(tb.Columns))
		for i := range vals {
			vals[i] = small()
		}
		return fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.Name, strings.Join(vals, ", "))
	}
	for range 6 {
		_, _, _ = db.Exec(insert(), sqlparser.NoArgs)
	}
	srv := proxy.NewServer(db, w.Checker(pol), proxy.Enforce)
	ref := w.Checker(pol)

	type user struct {
		attrs map[string]sqlvalue.Value
		sess  *proxy.Session
	}
	users := make([]user, 2)
	for i := range users {
		users[i].attrs = w.Session()
		users[i].sess = proxy.NewSession(users[i].attrs)
	}
	var steps []string
	logf := func(format string, args ...any) { steps = append(steps, fmt.Sprintf(format, args...)) }
	for range 100 {
		st.steps++
		ui := rng.Intn(len(users))
		u := users[ui]
		if rng.Intn(10) < 3 {
			var sql string
			switch tb := tables[rng.Intn(len(tables))]; rng.Intn(3) {
			case 0:
				sql = insert()
			case 1:
				col := tb.Columns[rng.Intn(len(tb.Columns))].Name
				sql = fmt.Sprintf("UPDATE %s SET %s = %s WHERE c0 = %s", tb.Name, col, small(), small())
			default:
				sql = fmt.Sprintf("DELETE FROM %s WHERE c0 = %s", tb.Name, small())
			}
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
		req := &proxy.Request{Op: "query", SQL: sql, Named: map[string]any{}}
		for _, v := range args.Positional {
			req.Args = append(req.Args, v)
		}
		for k, v := range args.Named {
			req.Named[k] = v
		}
		resp := srv.HandleInCtx(ctx, req, u.sess)
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
