package checker

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Extractor-vs-reference differential tests. Statements come from the
// plan tests' renderer over the cover generator (plan_test.go), now and
// then turned into a fallback statement (a bare parameter as a whole
// condition) or given a LIMIT or OFFSET; each call's answer is made up
// from the generator's value pool, shaped after what the statement
// translates to, so rows that satisfy a repeated head variable or a head
// value and rows that do not both come up constantly. The trace's facts
// — derived through statement plans' extractors and memoized per entry —
// must equal the reference derivation from scratch (facts_ref_test.go),
// key for key and in order, after every append.

// factCaseStats counts what the generated triples exercised.
type factCaseStats struct {
	refFactStats
	fallback, limited int
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
					if head[j].IsVar() && head[j].Var == h.Var {
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
// positional parameter as a whole condition (no plan expresses it) and
// sometimes with a LIMIT or OFFSET. cond and limit are the positions of
// those parameters, 0 when there is none.
func (g *coverGen) factStatement(qs []*cq.Query) (st genStmt, cond, limit int) {
	st = g.statement(qs)
	if g.rng.Intn(6) == 0 {
		st.npos++
		cond = st.npos
		arm := st.sql[strings.LastIndex(st.sql, " UNION ")+1:]
		if strings.Contains(arm, " WHERE ") {
			st.sql += " AND $" + strconv.Itoa(cond)
		} else {
			st.sql += " WHERE $" + strconv.Itoa(cond)
		}
	}
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
	if derive.Plan(sel).Fallback() {
		stats.fallback++
	}
	if sel.Limit != nil || sel.Offset != nil {
		stats.limited++
	}
	tr := &trace.Trace{}
	if g.rng.Intn(3) == 0 {
		tr.SetWindow(2)
	}
	for call := 0; call < 3; call++ {
		args, sess := g.call(st)
		set := func(pos int, v sqlvalue.Value) {
			if pos > 0 && pos <= len(args.Positional) {
				args.Positional[pos-1] = v
			}
		}
		set(cond, sqlvalue.NewInt(int64(min(g.rng.Intn(6), 1)))) // mostly true
		set(limit, sqlvalue.NewInt(int64(g.rng.Intn(2)*3)))
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

		entries, _ := tr.SnapshotState()
		gotFacts, gotKeys := tr.FactsKeyed(derive)
		wantFacts, wantKeys := refFacts(ref, entries, &stats.refFactStats)
		if got, want := factDump(gotFacts, gotKeys), factDump(wantFacts, wantKeys); got != want {
			t.Fatalf("seed %d, call %d: facts differ\nstatement: %s\nargs:      %v %v\nrows:      %v\nextractor:\n%s\nreference:\n%s\n%s",
				seed, call, st.sql, args.Positional, args.Named, e.Rows, got, want, gc)
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
		stats.fallback < cases/20,
		stats.limited < cases/10:
		t.Fatalf("generator is lopsided: %+v", stats)
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
