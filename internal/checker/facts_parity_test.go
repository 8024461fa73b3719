package checker

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cq"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Extractor-vs-reference differential tests. Statements come from the
// plan tests' renderer over the cover generator (plan_test.go), now and
// then given a bare parameter as a whole condition, which no plan
// accepts, or a LIMIT or OFFSET; each call's answer is made up
// from the generator's value pool, shaped after what the statement
// translates to, so rows that satisfy a repeated head variable or a head
// value and rows that do not both come up constantly. The trace's facts
// — derived through statement plans' extractors and memoized per entry —
// must equal the reference derivation from scratch (facts_ref_test.go),
// key for key and in order, after every append. So must the facts of a
// second trace that records each answer as the proxy does, without its
// rows when no fact of the statement reads them (elide): the row count
// alone has to derive what the rows did. A statement with a bare
// parameter as a condition derives no fact, a subset of what the
// reference derives from its bound translation.

// factCaseStats counts what the generated triples exercised.
type factCaseStats struct {
	refFactStats
	refused, limited int
	// elided counts entries recorded without their rows (ReadsRows is
	// false) that had some; negPattern counts calls whose empty answer
	// yields a negative fact, which an omitted row must suppress;
	// tightened counts derivations over a bare-parameter statement's
	// entries where the reference found facts.
	elided, negPattern, tightened int
}

// elide records e the way the proxy does: without its rows when no fact
// of the statement reads them.
func elide(tr *cq.Translator, e trace.Entry) trace.Entry {
	if !tr.Plan(e.Stmt).ReadsRows() {
		e.Rows, e.Omitted = nil, len(e.Rows)
	}
	return e
}

// checkNoNegativeWhenOmitted derives, alone, an entry of e's statement
// and call that kept no row but omitted some: whatever the extractor —
// one with a negative pattern, one that reads rows, none — it must not
// read the answer as empty. It reports whether the same entry with
// an empty answer does yield a negative fact.
func checkNoNegativeWhenOmitted(t *testing.T, tr *cq.Translator, e trace.Entry) (negPattern bool) {
	t.Helper()
	derive := func(omitted int) (neg bool) {
		one := &trace.Trace{}
		one.Append(trace.Entry{SQL: e.SQL, Stmt: e.Stmt, Args: e.Args, Omitted: omitted})
		facts, _ := one.FactsKeyed(tr)
		for _, f := range facts {
			neg = neg || f.Negated
		}
		return neg
	}
	if derive(1 + len(e.Rows)) {
		t.Fatalf("an answer of %d omitted rows yielded a negative fact: %s %v", 1+len(e.Rows), e.SQL, e.Args.Positional)
	}
	return derive(0)
}

// twin returns a numeric value's equal of the other type (2 and 2.0).
func twin(v sqlvalue.Value) sqlvalue.Value {
	switch v.Type() {
	case sqlvalue.Int:
		return sqlvalue.NewReal(float64(v.Int()))
	case sqlvalue.Real:
		if r := v.Real(); r == float64(int64(r)) {
			return sqlvalue.NewInt(int64(r))
		}
	}
	return v
}

// answer makes up one call's result: rows shaped after head (the
// statement's translated head, nil when it has none), each column either
// a pool value or — half the time — what the head says it must be.
func (g *coverGen) answer(head []cq.Term) [][]sqlvalue.Value {
	width := len(head)
	if head == nil {
		width = 1 + g.rng.Intn(3)
	}
	var rows [][]sqlvalue.Value
	for n := g.rng.Intn(4); n > 0; n-- {
		w := width
		if g.rng.Intn(20) == 0 {
			w++ // a row of the wrong width
		}
		row := make([]sqlvalue.Value, w)
		for i := range row {
			row[i] = g.value()
			if i >= len(head) || g.rng.Intn(2) == 0 {
				continue
			}
			switch h := head[i]; {
			case h.IsConst():
				row[i] = h.Const
			case h.IsVar():
				for j := range i {
					if head[j].IsVar() && head[j].Name == h.Name {
						row[i] = row[j]
					}
				}
			}
			if g.rng.Intn(3) == 0 {
				row[i] = twin(row[i])
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// factStatement renders a generated statement, sometimes with a bare
// positional parameter as a whole condition (bareCondition) and
// sometimes with a LIMIT or OFFSET. cond and limit are the positions of
// those parameters, 0 when there is none.
func (g *coverGen) factStatement(qs []*cq.Query) (st genStmt, cond, limit int) {
	st = g.statement(qs)
	cond = g.bareCondition(&st)
	switch g.rng.Intn(12) {
	case 0:
		st.sql += " LIMIT 0"
	case 1:
		st.sql += " LIMIT 5 OFFSET 100"
	case 2:
		st.sql += " OFFSET 1"
	case 3:
		st.npos++
		limit = st.npos
		st.sql += " LIMIT $" + strconv.Itoa(limit)
	}
	return st, cond, limit
}

// checkFactCase runs the differential contract on one seed: one
// statement, three calls of it with made-up answers, appended to a trace
// (windowed or not).
func checkFactCase(t *testing.T, seed int64, stats *factCaseStats) {
	t.Helper()
	g, gc := newCoverGen(seed)
	s := g.schema(t)
	st, cond, limit := g.factStatement(gc.tpl)
	sel, err := sqlparser.ParseSelectNorm(st.sql)
	if err != nil {
		t.Fatalf("seed %d: generated statement does not parse: %v\n%s", seed, err, st.sql)
	}
	derive, ref := &cq.Translator{Schema: s}, &cq.Translator{Schema: s}
	if derive.Plan(sel).Refusal() != "" {
		stats.refused++
	}
	if sel.Limit != nil || sel.Offset != nil {
		stats.limited++
	}
	tr, elided := &trace.Trace{}, &trace.Trace{}
	if g.rng.Intn(3) == 0 {
		tr.SetWindow(2)
		elided.SetWindow(2)
	}
	for call := 0; call < 3; call++ {
		args, sess := g.call(st)
		setArg(args, cond, sqlvalue.NewInt(int64(min(g.rng.Intn(6), 1)))) // mostly true
		setArg(args, limit, sqlvalue.NewInt(int64(g.rng.Intn(2)*3)))
		if g.rng.Intn(4) > 0 {
			// The session's attributes as named arguments, as a caller
			// binding them itself would record them.
			if args.Named == nil {
				args.Named = map[string]sqlvalue.Value{}
			}
			for k, v := range sess {
				if _, ok := args.Named[k]; !ok {
					args.Named[k] = v
				}
			}
		}
		var head []cq.Term
		if bound, err := sqlparser.Bind(sel, args); err == nil {
			if ucq, err := ref.TranslateSelect(bound.(*sqlparser.SelectStmt)); err == nil && len(ucq) > 0 {
				head = ucq[0].Head
			}
		}
		e := trace.Entry{SQL: st.sql, Stmt: sel, Args: args, Rows: g.answer(head)}
		tr.Append(e)
		short := elide(derive, e)
		elided.Append(short)
		if short.Omitted > 0 {
			stats.elided++
		}
		if checkNoNegativeWhenOmitted(t, derive, e) {
			stats.negPattern++
		}

		entries, _ := tr.SnapshotState()
		wantFacts, wantKeys := refFacts(ref, entries, &stats.refFactStats)
		want := factDump(wantFacts, wantKeys)
		for _, run := range []struct {
			name string
			tr   *trace.Trace
		}{{"extractor", tr}, {"rows elided", elided}} {
			gotFacts, gotKeys := run.tr.FactsKeyed(derive)
			if cond > 0 {
				// Tighten-only: every fact derived is a reference fact.
				for i, k := range gotKeys {
					if !slices.Contains(wantKeys, k) {
						t.Fatalf("seed %d, call %d: %s derived %s, which the reference does not\nstatement: %s\nargs:      %v %v\nreference:\n%s",
							seed, call, run.name, factDump(gotFacts[i:i+1], gotKeys[i:i+1]), st.sql, args.Positional, args.Named, want)
					}
				}
				if len(wantKeys) > 0 {
					stats.tightened++
				}
				continue
			}
			if got := factDump(gotFacts, gotKeys); got != want {
				t.Fatalf("seed %d, call %d: facts differ\nstatement: %s\nargs:      %v %v\nrows:      %v\n%s:\n%s\nreference:\n%s\n%s",
					seed, call, st.sql, args.Positional, args.Named, e.Rows, run.name, got, want, gc)
			}
		}
	}
}

// factDump renders facts with their keys, one per line, every term by
// its Key — kind and value class. Where a statement has two slots with
// Identical values of different types (2 and 2.0) in one equivalence
// class, a plan writes each slot's own value and the bound translation
// the first of the two it met (plan.go); the two share a Key.
func factDump(facts []cq.Fact, keys []string) string {
	var b strings.Builder
	for i, f := range facts {
		fmt.Fprintf(&b, "%q neg=%v %s(", keys[i], f.Negated, f.Atom.Table)
		for _, a := range f.Atom.Args {
			fmt.Fprintf(&b, " %s", a.Key())
		}
		b.WriteString(" )\n")
	}
	return b.String()
}

// TestFactParityGenerated runs the differential contract over a fixed
// block of seeds (FuzzFactParity explores beyond it).
func TestFactParityGenerated(t *testing.T) {
	var stats factCaseStats
	seeds := int64(4000)
	if testing.Short() {
		seeds = 400
	}
	for seed := int64(0); seed < seeds; seed++ {
		checkFactCase(t, seed, &stats)
	}
	t.Logf("%+v", stats)
	// A generator that never reaches a case pins nothing about it. (The
	// reference's counts are over every re-derivation, so they grow with
	// the appends.)
	cases := int(seeds)
	switch {
	case stats.positive < cases,
		stats.negative < cases/40,
		stats.rowsRejected < cases/10,
		stats.limitedEmpty < cases/100,
		stats.refused < cases/20,
		stats.tightened < cases/50,
		stats.limited < cases/10,
		stats.elided < cases/10,
		stats.negPattern < cases/40:
		t.Fatalf("generator is lopsided: %+v", stats)
	}
}

// TestFactElisionFixtures runs the elision contract over every
// fixture's corpus: each probe and query, run against the fixture's
// database, is recorded once with its rows and once as the proxy records
// it (Checker.ReadsRows), into one trace per fixture; after every append
// the second trace's facts must be the reference derivation's over the
// first, key for key.
func TestFactElisionFixtures(t *testing.T) {
	elided := 0
	for _, f := range apps.All() {
		db := f.MustNewDB(24)
		c, ref := New(f.Policy()), &cq.Translator{Schema: f.Schema}
		var full []trace.Entry
		short := &trace.Trace{}
		record := func(label, sql string, argv []any) {
			sel, err := sqlparser.ParseSelectNorm(sql)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, label, err)
			}
			args := sqlparser.PositionalArgs(argv...)
			bound, err := sqlparser.Bind(sel, args)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, label, err)
			}
			res, err := db.Query(bound.(*sqlparser.SelectStmt))
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, label, err)
			}
			e := trace.Entry{SQL: sql, Stmt: sel, Args: args, Columns: res.Columns, Rows: res.Rows}
			full = append(full, e)
			if !c.ReadsRows(sel) {
				e.Rows, e.Omitted = nil, len(res.Rows)
				elided += min(e.Omitted, 1)
			}
			short.Append(e)
			gotFacts, gotKeys := short.FactsKeyed(c.tr)
			wantFacts, wantKeys := refFacts(ref, full, nil)
			if got, want := factDump(gotFacts, gotKeys), factDump(wantFacts, wantKeys); got != want {
				t.Fatalf("%s/%s: facts with rows elided differ\nstatement: %s\nelided:\n%s\nreference:\n%s", f.Name, label, sql, got, want)
			}
		}
		for _, w := range f.Corpus {
			if w.PrimeSQL != "" {
				record(w.Label+"/prime", w.PrimeSQL, w.PrimeArgs)
			}
			record(w.Label, w.SQL, w.Args)
		}
	}
	if elided == 0 {
		t.Fatal("no fixture answer was recorded without its rows: the contract pins nothing")
	}
}

// FuzzFactParity explores generator seeds under the same contract.
func FuzzFactParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFactCase(t, seed, &factCaseStats{})
	})
}
