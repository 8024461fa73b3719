package diagnose

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/checker"
	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// AccessCheck is a synthesized application patch (§5.2.2, form 2): a
// statement about database content — "table T contains a row matching
// this pattern" — that the developer can verify before issuing the
// blocked query, making it compliant.
type AccessCheck struct {
	// Table and Conditions describe the row pattern.
	Table string
	// CheckSQL is the probe query the application should run (its
	// non-empty result establishes the statement).
	CheckSQL string
	// Atom is the pattern as a (possibly parameterized) ground atom.
	Atom cq.Atom
}

// String renders the check.
func (a AccessCheck) String() string {
	return fmt.Sprintf("ensure %s has a matching row: %s", a.Table, a.CheckSQL)
}

// maxChecks bounds the abduction search output.
const maxChecks = 16

// AbduceAccessChecks searches for row-existence statements that make
// the blocked query compliant given the trace. A candidate arises
// from a policy view whose body partially embeds into the query: the
// unmatched view atoms, instantiated by the partial embedding, are
// exactly what must additionally hold. Each candidate is verified by
// re-checking the query with the hypothetical probe appended to the
// trace, and must be consistent with the trace (not contradicted by a
// known-empty pattern).
func AbduceAccessChecks(ctx context.Context, chk *checker.Checker, session map[string]sqlvalue.Value, sel *sqlparser.SelectStmt, args sqlparser.Args, tr *trace.Trace) ([]AccessCheck, error) {
	s := chk.Policy().Schema
	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		return nil, err
	}
	ucq, err := (&cq.Translator{Schema: s}).TranslateSelect(bound.(*sqlparser.SelectStmt))
	if err != nil {
		return nil, err
	}
	facts := FactsFromTrace(s, tr)

	var out []AccessCheck
	seen := map[string]bool{}
	for _, q := range ucq {
		for _, vd := range chk.Policy().Disjuncts(nil) {
			v := vd.RenameVars("w_")
			for _, cand := range partialEmbeddings(q, v) {
				if len(out) >= maxChecks {
					return out, nil
				}
				check, ok := buildCheck(s, session, cand)
				if !ok {
					continue
				}
				key := check.Atom.String()
				if seen[key] {
					continue
				}
				seen[key] = true
				if contradictsTrace(check.Atom, facts, session) {
					continue
				}
				if verifyCheck(ctx, chk, session, sel, args, tr, check) {
					out = append(out, check)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CheckSQL < out[j].CheckSQL })
	return out, nil
}

// candidateCheck is a partial view embedding: missing atoms under the
// unifier become the abduced statement.
type candidateCheck struct {
	missing []cq.Atom
}

// partialEmbeddings enumerates embeddings of a subset of the view's
// atoms into the query (at least one matched, at least one missing),
// returning the instantiated missing atoms.
func partialEmbeddings(q *cq.Query, v *cq.Query) []candidateCheck {
	qcs := cq.NewConstraints()
	qcs.AddAll(q.Comps)

	type state struct {
		m       cq.Mapping
		matched int
		missing []int
	}
	var results []candidateCheck
	var rec func(i int, st state)
	rec = func(i int, st state) {
		if len(results) >= 64 {
			return
		}
		if i == len(v.Atoms) {
			if st.matched == 0 || len(st.missing) == 0 {
				return
			}
			// View comparisons must not be violated under the mapping;
			// unmapped variables are unconstrained, so only fully
			// mapped comparisons are testable.
			for _, c := range v.Comps {
				lc := st.m.ApplyComp(c)
				if termMapped(lc.Left, v) && termMapped(lc.Right, v) && !qcs.Implies(lc) {
					return
				}
			}
			var miss []cq.Atom
			for _, mi := range st.missing {
				a := v.Atoms[mi]
				na := cq.Atom{Table: a.Table, Args: make([]cq.Term, len(a.Args))}
				for k, t := range a.Args {
					na.Args[k] = st.m.Apply(t)
				}
				miss = append(miss, na)
			}
			results = append(results, candidateCheck{missing: miss})
			return
		}
		va := v.Atoms[i]
		// Match against query atoms.
		for _, qa := range q.Atoms {
			if qa.Table != va.Table || len(qa.Args) != len(va.Args) {
				continue
			}
			m := st.m
			cloned := false
			ok := true
			for k, vt := range va.Args {
				qt := qa.Args[k]
				switch {
				case vt.IsVar():
					if bnd, has := m[vt.Name]; has {
						if !bnd.Equal(qt) && !qcs.Implies(cq.Comparison{Op: cq.Eq, Left: bnd, Right: qt}) {
							ok = false
						}
					} else {
						if !cloned {
							m = m.Clone()
							cloned = true
						}
						m[vt.Name] = qt
					}
				default:
					if !vt.Equal(qt) && !qcs.Implies(cq.Comparison{Op: cq.Eq, Left: vt, Right: qt}) {
						ok = false
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(i+1, state{m: m, matched: st.matched + 1, missing: st.missing})
			}
		}
		// Or mark missing.
		rec(i+1, state{m: st.m, matched: st.matched, missing: append(append([]int(nil), st.missing...), i)})
	}
	rec(0, state{m: cq.Mapping{}})
	return results
}

func termMapped(t cq.Term, v *cq.Query) bool {
	if !t.IsVar() {
		return true
	}
	// A view variable that stayed unmapped keeps its w_ prefix.
	return !strings.HasPrefix(t.Name, "w_")
}

// buildCheck turns the missing atoms into a probe query. Every
// argument must be a constant, a session parameter, or an unmapped
// view variable (existential in the probe); query variables are
// unknown to the application and disqualify the candidate.
func buildCheck(s *schema.Schema, session map[string]sqlvalue.Value, cand candidateCheck) (AccessCheck, bool) {
	if len(cand.missing) != 1 {
		// Multi-atom checks are possible but rarely what a developer
		// would write; prefer single-row statements like the paper's.
		return AccessCheck{}, false
	}
	a := cand.missing[0]
	tab, ok := s.Table(a.Table)
	if !ok {
		return AccessCheck{}, false
	}
	var conds []string
	pinned := 0
	for i, t := range a.Args {
		col := tab.Columns[i].Name
		switch {
		case t.IsConst():
			conds = append(conds, fmt.Sprintf("%s = %s", col, t.Const.String()))
			pinned++
		case t.IsParam():
			conds = append(conds, fmt.Sprintf("%s = ?%s", col, t.Name))
			pinned++
		default:
			if !strings.HasPrefix(t.Name, "w_") {
				return AccessCheck{}, false // depends on a query variable
			}
			// Unmapped view variable: existential, no condition.
		}
	}
	if pinned == 0 {
		return AccessCheck{}, false // vacuous statement
	}
	sql := "SELECT 1 FROM " + tab.Name
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	return AccessCheck{Table: tab.Name, CheckSQL: sql, Atom: a}, true
}

// contradictsTrace reports whether a negative fact already rules the
// statement out.
func contradictsTrace(a cq.Atom, facts []cq.Fact, session map[string]sqlvalue.Value) bool {
	grounded := groundAtom(a, session)
	for _, f := range facts {
		if !f.Negated || f.Atom.Table != a.Table {
			continue
		}
		if negPatternCovers(f.Atom, grounded, session) {
			return true
		}
	}
	return false
}

func groundAtom(a cq.Atom, session map[string]sqlvalue.Value) cq.Atom {
	out := cq.Atom{Table: a.Table, Args: make([]cq.Term, len(a.Args))}
	for i, t := range a.Args {
		if t.IsParam() {
			if v, ok := session[t.Name]; ok {
				out.Args[i] = cq.C(v)
				continue
			}
		}
		out.Args[i] = t
	}
	return out
}

// negPatternCovers reports whether every row matching cand would also
// match the negated pattern (so cand cannot hold).
func negPatternCovers(pattern, cand cq.Atom, session map[string]sqlvalue.Value) bool {
	if len(pattern.Args) != len(cand.Args) {
		return false
	}
	bind := map[string]cq.Term{}
	for i, pt := range pattern.Args {
		ct := cand.Args[i]
		if pt.IsParam() {
			if v, ok := session[pt.Name]; ok {
				pt = cq.C(v)
			}
		}
		switch {
		case pt.IsVar():
			if prev, ok := bind[pt.Name]; ok {
				if !prev.Equal(ct) {
					return false
				}
			} else {
				bind[pt.Name] = ct
			}
		default:
			if !pt.Equal(ct) {
				return false
			}
		}
	}
	return true
}

// verifyCheck re-runs the compliance decision with the hypothetical
// probe appended to the trace as a one-row result.
func verifyCheck(ctx context.Context, chk *checker.Checker, session map[string]sqlvalue.Value, sel *sqlparser.SelectStmt, args sqlparser.Args, tr *trace.Trace, check AccessCheck) bool {
	probeSel, err := sqlparser.ParseSelect(check.CheckSQL)
	if err != nil {
		return false
	}
	// Bind probe parameters from the session.
	named := map[string]sqlvalue.Value{}
	for _, p := range sqlparser.Params(probeSel) {
		if p.Name == "" {
			return false
		}
		v, ok := session[p.Name]
		if !ok {
			return false
		}
		named[p.Name] = v
	}
	hypo := &trace.Trace{}
	if tr != nil {
		hypo = tr.Clone()
	}
	hypo.Append(trace.Entry{
		SQL:     check.CheckSQL,
		Stmt:    probeSel,
		Args:    sqlparser.Args{Named: named},
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	d := chk.Check(ctx, sel, args, session, hypo)
	return d.Allowed
}
