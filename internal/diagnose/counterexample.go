// Package diagnose implements the paper's §5 — violation diagnosis:
// when the proxy blocks a query, help the operator understand why and
// generate candidate patches.
//
//   - Counterexample (§5.1): a pair of database instances that agree
//     on every policy view (and on the trace) but give the blocked
//     query different answers — the proof-of-violation Blockaid's
//     theory describes.
//   - Contained rewriting (§5.2.2, form 1): narrow the blocked query
//     by conjoining policy-view bodies so the result is contained in
//     the original and compliant; maximal candidates are kept.
//   - Access-check synthesis (§5.2.2, form 2): abduce a statement
//     about database content (the existence of a row) that, once
//     established by a prior query, makes the blocked query compliant
//     — e.g. "Attendance contains row (UId=?MyUId, EId=2)".
package diagnose

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Counterexample is a proof of non-compliance: two instances agreeing
// on all views and trace facts, with different query answers.
type Counterexample struct {
	D1, D2 cq.Instance
	// Answer is a row returned on D1 but not on D2.
	Answer []sqlvalue.Value
}

// String renders the two instances side by side.
func (c *Counterexample) String() string {
	var b strings.Builder
	b.WriteString("D1 (query returns the row):\n")
	writeInstance(&b, c.D1)
	b.WriteString("D2 (query does not):\n")
	writeInstance(&b, c.D2)
	row := make([]string, len(c.Answer))
	for i, v := range c.Answer {
		row[i] = v.String()
	}
	fmt.Fprintf(&b, "differing answer: (%s)\n", strings.Join(row, ", "))
	return b.String()
}

func writeInstance(b *strings.Builder, inst cq.Instance) {
	tables := make([]string, 0, len(inst))
	for t := range inst {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		for _, row := range inst[t] {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Fprintf(b, "  %s(%s)\n", t, strings.Join(parts, ", "))
		}
	}
}

// FindCounterexample searches for a counterexample for the query
// disjunct under the (session-bound) policy views and trace facts. It
// builds D1 by freezing the query (plus known fact rows) and derives
// D2 by deleting tuple subsets; a hit is a subset whose removal leaves
// every view answer unchanged while removing a query answer.
//
// The search is bounded and sound: any returned counterexample is
// genuine. Absence of a result does not prove compliance. A canceled
// ctx aborts the search, within an evaluation or between two, and
// reports no counterexample; callers distinguish "none found" from
// "gave up" via ctx.Err.
func FindCounterexample(ctx context.Context, s *schema.Schema, p *policy.Policy, session map[string]sqlvalue.Value, q *cq.Query, facts []cq.Fact) (*Counterexample, bool) {
	ce, ok := findCounterexample(ctx, s, p, session, q, facts)
	if ctx.Err() != nil {
		return nil, false // an evaluation may have given up part way
	}
	return ce, ok
}

func findCounterexample(ctx context.Context, s *schema.Schema, p *policy.Policy, session map[string]sqlvalue.Value, q *cq.Query, facts []cq.Fact) (*Counterexample, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	bound := q.BindParams(session)
	inst, _, err := cq.Freeze(s, bound)
	if err != nil {
		return nil, false // unsatisfiable query can't have a counterexample
	}
	// Add positive fact rows; remember them so they're never deleted
	// (both instances must stay consistent with the trace).
	protected := map[string]bool{}
	rows := newRowSet(inst)
	for _, f := range facts {
		if f.Negated {
			continue
		}
		row := make([]sqlvalue.Value, len(f.Atom.Args))
		ok := true
		for i, t := range f.Atom.Args {
			switch {
			case t.IsConst():
				row[i] = t.Const
			case t.IsParam():
				v, has := session[t.Param]
				if !has {
					ok = false
				}
				row[i] = v
			default:
				ok = false
			}
		}
		if !ok {
			continue
		}
		key := f.Atom.Table + "|" + cq.AnswerKey([][]sqlvalue.Value{row})
		protected[key] = true
		if !rows.has(f.Atom.Table, row) {
			rows.add(f.Atom.Table, row)
		}
	}
	// Negative facts must hold on D1 (and every subset, since removal
	// only shrinks).
	for _, f := range facts {
		if !f.Negated {
			continue
		}
		if patternMatches(inst, f.Atom, session) {
			return nil, false // trace-inconsistent freeze; give up
		}
	}

	views := p.Disjuncts(session)
	viewKeys := func(in cq.Instance) string {
		keys := make([]string, len(views))
		for i, v := range views {
			keys[i] = cq.AnswerKey(cq.EvaluateCtx(ctx, v, in))
		}
		return strings.Join(keys, "\x01")
	}
	baseViews := viewKeys(inst)
	baseAnswers := cq.EvaluateCtx(ctx, bound, inst)
	if len(baseAnswers) == 0 {
		return nil, false
	}

	// Candidate deletions: all non-protected tuples.
	type tupleRef struct {
		table string
		idx   int
	}
	var deletable []tupleRef
	for t, rows := range inst {
		for i, row := range rows {
			key := t + "|" + cq.AnswerKey([][]sqlvalue.Value{row})
			if !protected[key] {
				deletable = append(deletable, tupleRef{table: t, idx: i})
			}
		}
	}
	sort.Slice(deletable, func(i, j int) bool {
		if deletable[i].table != deletable[j].table {
			return deletable[i].table < deletable[j].table
		}
		return deletable[i].idx < deletable[j].idx
	})
	n := len(deletable)
	if n > 12 {
		n = 12 // bound the subset search
	}
	for mask := 1; mask < 1<<n; mask++ {
		if ctx.Err() != nil {
			return nil, false
		}
		d2 := cq.Instance{}
		skip := map[tupleRef]bool{}
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				skip[deletable[b]] = true
			}
		}
		for t, rows := range inst {
			for i, row := range rows {
				if skip[tupleRef{table: t, idx: i}] {
					continue
				}
				d2[t] = append(d2[t], row)
			}
		}
		if viewKeys(d2) != baseViews {
			continue
		}
		newAnswers := cq.EvaluateCtx(ctx, bound, d2)
		for _, a := range baseAnswers {
			if !cq.ContainsRow(newAnswers, a) {
				return &Counterexample{D1: inst.Clone(), D2: d2, Answer: a}, true
			}
		}
	}

	// Second pass: perturb one cell of a non-protected tuple — catches
	// violations where a column invisible to the views changes the
	// query's answer (a hidden Disease column, an age crossing a
	// comparison boundary). Candidate values per type: one fresh value
	// plus the comparison boundaries of the query and views ±1.
	intBoundaries := comparisonConstants(bound, views)
	fresh := 0
	for _, ref := range deletable {
		width := len(inst[ref.table][ref.idx])
		for col := 0; col < width; col++ {
			fresh++
			orig := inst[ref.table][ref.idx][col]
			var muts []sqlvalue.Value
			switch orig.Type() {
			case sqlvalue.Int:
				muts = append(muts, sqlvalue.NewInt(900000+int64(fresh)))
				for _, c := range intBoundaries {
					muts = append(muts,
						sqlvalue.NewInt(c-1), sqlvalue.NewInt(c), sqlvalue.NewInt(c+1))
				}
			case sqlvalue.Real:
				muts = append(muts, sqlvalue.NewReal(900000.5+float64(fresh)))
			case sqlvalue.Text:
				muts = append(muts, sqlvalue.NewText(fmt.Sprintf("mut_%d", fresh)))
			case sqlvalue.Bool:
				muts = append(muts, sqlvalue.NewBool(!orig.Bool()))
			default:
				continue
			}
			for _, mut := range muts {
				if ctx.Err() != nil {
					return nil, false
				}
				if sqlvalue.Identical(mut, orig) {
					continue
				}
				d2 := inst.Clone()
				d2[ref.table][ref.idx][col] = mut
				if viewKeys(d2) != baseViews {
					continue
				}
				negOK := true
				for _, f := range facts {
					if f.Negated && patternMatches(d2, f.Atom, session) {
						negOK = false
						break
					}
				}
				if !negOK {
					continue
				}
				newAnswers := cq.EvaluateCtx(ctx, bound, d2)
				if cq.AnswerKey(newAnswers) == cq.AnswerKey(baseAnswers) {
					continue
				}
				for _, a := range baseAnswers {
					if !cq.ContainsRow(newAnswers, a) {
						return &Counterexample{D1: inst.Clone(), D2: d2, Answer: a}, true
					}
				}
				// The answer changed by gaining rows; report one.
				for _, a := range newAnswers {
					if !cq.ContainsRow(baseAnswers, a) {
						return &Counterexample{D1: d2, D2: inst.Clone(), Answer: a}, true
					}
				}
			}
		}
	}

	// Third pass: vary the same cell in BOTH instances. Needed when
	// the frozen value incidentally lands inside a view's range (e.g.
	// an age satisfying Age>=18 frozen above 60, inside VSeniors):
	// neither endpoint matches the freeze, but a pair on the same side
	// of the view boundary and different sides of the query boundary
	// is a counterexample.
	for _, ref := range deletable {
		width := len(inst[ref.table][ref.idx])
		for col := 0; col < width; col++ {
			orig := inst[ref.table][ref.idx][col]
			if orig.Type() != sqlvalue.Int {
				continue
			}
			var cands []sqlvalue.Value
			for _, c := range intBoundaries {
				cands = append(cands,
					sqlvalue.NewInt(c-1), sqlvalue.NewInt(c), sqlvalue.NewInt(c+1))
			}
			for _, v1 := range cands {
				if ctx.Err() != nil {
					return nil, false
				}
				d1 := inst.Clone()
				d1[ref.table][ref.idx][col] = v1
				if !negFactsHold(d1, facts, session) {
					continue
				}
				k1 := viewKeys(d1)
				a1 := cq.EvaluateCtx(ctx, bound, d1)
				for _, v2 := range cands {
					if ctx.Err() != nil {
						return nil, false
					}
					if sqlvalue.Identical(v1, v2) {
						continue
					}
					d2 := inst.Clone()
					d2[ref.table][ref.idx][col] = v2
					if viewKeys(d2) != k1 || !negFactsHold(d2, facts, session) {
						continue
					}
					a2 := cq.EvaluateCtx(ctx, bound, d2)
					for _, a := range a1 {
						if !cq.ContainsRow(a2, a) {
							return &Counterexample{D1: d1, D2: d2, Answer: a}, true
						}
					}
				}
			}
		}
	}
	return nil, false
}

// negFactsHold checks that no negated trace pattern matches.
func negFactsHold(inst cq.Instance, facts []cq.Fact, session map[string]sqlvalue.Value) bool {
	for _, f := range facts {
		if f.Negated && patternMatches(inst, f.Atom, session) {
			return false
		}
	}
	return true
}

// comparisonConstants collects the integer constants appearing in the
// query's and views' comparisons — the boundaries worth probing.
func comparisonConstants(q *cq.Query, views []*cq.Query) []int64 {
	seen := map[int64]bool{}
	var out []int64
	collect := func(qq *cq.Query) {
		for _, c := range qq.Comps {
			for _, t := range []cq.Term{c.Left, c.Right} {
				if t.IsConst() && t.Const.Type() == sqlvalue.Int {
					v := t.Const.Int()
					if !seen[v] {
						seen[v] = true
						out = append(out, v)
					}
				}
			}
		}
	}
	collect(q)
	for _, v := range views {
		collect(v)
	}
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// rowSet files an instance's rows under a key that sqlvalue.Identical
// rows share, so that adding a trace fact's row probes one bucket
// instead of scanning its table: FindCounterexample adds every positive
// fact before its search first polls ctx. A numeric cell is keyed by its
// float64 bits (-0 as 0), since Identical compares INTEGER with REAL by
// Compare: 2 and 2.0 are one row. A bucket is checked with Identical
// itself. NaN defeats any key — Identical finds it equal to every
// INTEGER and to no REAL, itself included — so a row with a NaN cell is
// filed apart and compared with every probe of its table, and a probe
// with a NaN cell scans the table.
type rowSet struct {
	inst     cq.Instance
	keyed    map[string][][]sqlvalue.Value // rowKey → its rows
	nan      map[string][][]sqlvalue.Value // table → its rows with a NaN cell
	compared int                           // rows compared cell by cell, for the work-bound test
}

func newRowSet(inst cq.Instance) *rowSet {
	s := &rowSet{inst: inst, keyed: map[string][][]sqlvalue.Value{}, nan: map[string][][]sqlvalue.Value{}}
	for t, rows := range inst {
		for _, r := range rows {
			s.file(t, r)
		}
	}
	return s
}

// rowKey keys row of table; nan reports a NaN cell, which has no key.
func rowKey(table string, row []sqlvalue.Value) (key string, nan bool) {
	b := append([]byte(table), 0)
	for _, v := range row {
		switch v.Type() {
		case sqlvalue.Int, sqlvalue.Real:
			f := v.Real()
			if math.IsNaN(f) {
				return "", true
			}
			if f == 0 {
				f = 0 // -0 is Identical to 0
			}
			b = binary.AppendUvarint(append(b, 'f'), math.Float64bits(f))
		case sqlvalue.Text:
			b = append(binary.AppendUvarint(append(b, 't'), uint64(len(v.Text()))), v.Text()...)
		default: // NULL, BOOLEAN: no 0 byte in either key
			b = append(v.AppendKey(b), 0)
		}
	}
	return string(b), false
}

func (s *rowSet) file(table string, row []sqlvalue.Value) {
	if key, nan := rowKey(table, row); nan {
		s.nan[table] = append(s.nan[table], row)
	} else {
		s.keyed[key] = append(s.keyed[key], row)
	}
}

// has reports whether the instance holds a row Identical to row, cell by
// cell.
func (s *rowSet) has(table string, row []sqlvalue.Value) bool {
	key, nan := rowKey(table, row)
	if nan {
		return s.anyIdentical(s.inst[table], row)
	}
	return s.anyIdentical(s.keyed[key], row) || s.anyIdentical(s.nan[table], row)
}

// add appends row to table's rows and files it.
func (s *rowSet) add(table string, row []sqlvalue.Value) {
	s.inst[table] = append(s.inst[table], row)
	s.file(table, row)
}

func (s *rowSet) anyIdentical(rows [][]sqlvalue.Value, row []sqlvalue.Value) bool {
	for _, r := range rows {
		s.compared++
		if slices.EqualFunc(r, row, sqlvalue.Identical) {
			return true
		}
	}
	return false
}

// patternMatches reports whether some row of the instance matches the
// (possibly variable-bearing) atom pattern.
func patternMatches(inst cq.Instance, pattern cq.Atom, session map[string]sqlvalue.Value) bool {
	for _, row := range inst[pattern.Table] {
		if len(row) != len(pattern.Args) {
			continue
		}
		bind := map[string]sqlvalue.Value{}
		ok := true
		for i, t := range pattern.Args {
			switch {
			case t.IsConst():
				if !sqlvalue.Identical(t.Const, row[i]) {
					ok = false
				}
			case t.IsParam():
				v, has := session[t.Param]
				if !has || !sqlvalue.Identical(v, row[i]) {
					ok = false
				}
			default:
				if prev, has := bind[t.Var]; has {
					if !sqlvalue.Identical(prev, row[i]) {
						ok = false
					}
				} else {
					bind[t.Var] = row[i]
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// FactsFromTrace converts a trace into facts for counterexample and
// patch search (re-exported convenience).
func FactsFromTrace(s *schema.Schema, tr *trace.Trace) []cq.Fact {
	if tr == nil {
		return nil
	}
	return trace.Facts(s, tr)
}
