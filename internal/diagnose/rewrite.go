package diagnose

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/checker"
	"repro/internal/cq"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Rewriting is one contained-rewriting patch: a narrowed query that is
// contained in the blocked query and compliant under the policy.
type Rewriting struct {
	SQL string
	CQ  *cq.Query
}

// maxRewriteCandidates bounds the unification search.
const maxRewriteCandidates = 512

// ContainedRewritings proposes narrowed versions of the blocked query
// disjunct: each candidate conjoins a policy view's body onto the
// query (a bucket-algorithm step — view subgoals unify with query
// subgoals or join in as new ones), and survives only if it is (a)
// strictly contained in the original, (b) satisfiable, and (c) allowed
// by the checker. Only maximal candidates are returned, most-general
// first.
func ContainedRewritings(ctx context.Context, chk *checker.Checker, session map[string]sqlvalue.Value, q *cq.Query) ([]Rewriting, error) {
	s := chk.Policy().Schema
	var candidates []*cq.Query
	for _, vd := range chk.Policy().Disjuncts(nil) {
		v := vd.RenameVars("w_")
		for _, cand := range unifyIntoQuery(q, v) {
			if len(candidates) >= maxRewriteCandidates {
				break
			}
			candidates = append(candidates, cand)
		}
	}

	var out []Rewriting
	seen := map[string]bool{}
	for _, cand := range candidates {
		cs := cq.NewConstraints()
		cs.AddAll(cand.Comps)
		if !cs.Consistent() {
			continue
		}
		if _, _, err := cq.Freeze(s, cand.BindParams(sessionValues(session))); err != nil {
			continue // unsatisfiable narrowing is useless as a patch
		}
		if !cq.Contains(cand, q) {
			continue
		}
		min := cq.Minimize(cand)
		key := min.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		sql, err := cq.ToSQL(s, min)
		if err != nil {
			continue
		}
		d, err := chk.CheckSQL(ctx, sql, sqlparser.NoArgs, session, nil)
		if err != nil || !d.Allowed {
			continue
		}
		out = append(out, Rewriting{SQL: sql, CQ: min})
	}

	// Keep maximal candidates only.
	var maximal []Rewriting
	for i, a := range out {
		dominated := false
		for j, b := range out {
			if i == j {
				continue
			}
			if cq.Contains(a.CQ, b.CQ) && !cq.Contains(b.CQ, a.CQ) {
				dominated = true
				break
			}
			if cq.Contains(a.CQ, b.CQ) && cq.Contains(b.CQ, a.CQ) && j < i {
				dominated = true // duplicate up to equivalence
				break
			}
		}
		if !dominated {
			maximal = append(maximal, a)
		}
	}
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].SQL < maximal[j].SQL })
	return maximal, nil
}

func sessionValues(session map[string]sqlvalue.Value) map[string]sqlvalue.Value {
	if session == nil {
		return map[string]sqlvalue.Value{}
	}
	return session
}

// unifyIntoQuery enumerates conjunctions of the view body onto the
// query: each view atom either unifies with a same-table query atom
// (most general unifier over the arguments) or is added as a fresh
// subgoal. The query's head is preserved (under the unifier).
func unifyIntoQuery(q *cq.Query, v *cq.Query) []*cq.Query {
	type state struct {
		sub   map[string]cq.Term // variable -> term (applies to both sides)
		extra []cq.Atom
	}
	var results []*cq.Query
	var rec func(i int, st state)

	apply := func(sub map[string]cq.Term, t cq.Term) cq.Term {
		for t.IsVar() {
			n, ok := sub[t.Name]
			if !ok || n.Equal(t) {
				break
			}
			t = n
		}
		return t
	}
	unify := func(sub map[string]cq.Term, a, b cq.Term) (map[string]cq.Term, bool) {
		a, b = apply(sub, a), apply(sub, b)
		if a.Equal(b) {
			return sub, true
		}
		ns := make(map[string]cq.Term, len(sub)+1)
		for k, vv := range sub {
			ns[k] = vv
		}
		switch {
		case a.IsVar():
			ns[a.Name] = b
			return ns, true
		case b.IsVar():
			ns[b.Name] = a
			return ns, true
		default:
			return nil, false // distinct constants/params
		}
	}

	rec = func(i int, st state) {
		if len(results) >= maxRewriteCandidates {
			return
		}
		if i == len(v.Atoms) {
			subFn := func(t cq.Term) cq.Term { return apply(st.sub, t) }
			cand := q.Substitute(subFn)
			for _, a := range st.extra {
				na := cq.Atom{Table: a.Table, Args: make([]cq.Term, len(a.Args))}
				for k, t := range a.Args {
					na.Args[k] = apply(st.sub, t)
				}
				cand.Atoms = append(cand.Atoms, na)
			}
			for _, c := range v.Comps {
				cand.Comps = append(cand.Comps, cq.Comparison{
					Op: c.Op, Left: apply(st.sub, c.Left), Right: apply(st.sub, c.Right),
				})
			}
			results = append(results, cand)
			return
		}
		va := v.Atoms[i]
		// Option A: unify with each same-table query atom.
		for _, qa := range q.Atoms {
			if qa.Table != va.Table || len(qa.Args) != len(va.Args) {
				continue
			}
			sub := st.sub
			ok := true
			for k := range va.Args {
				var success bool
				sub, success = unify(sub, va.Args[k], qa.Args[k])
				if !success {
					ok = false
					break
				}
			}
			if ok {
				rec(i+1, state{sub: sub, extra: st.extra})
			}
		}
		// Option B: keep as a fresh subgoal.
		rec(i+1, state{sub: st.sub, extra: append(append([]cq.Atom(nil), st.extra...), va)})
	}
	rec(0, state{sub: map[string]cq.Term{}})
	return results
}

// RetainedFraction measures a rewriting's usefulness on a concrete
// instance: the fraction of the blocked query's answer rows the
// rewriting still returns (1.0 = lossless for this database).
func RetainedFraction(inst cq.Instance, session map[string]sqlvalue.Value, original, rewritten *cq.Query) float64 {
	o := cq.Evaluate(original.BindParams(sessionValues(session)), inst)
	if len(o) == 0 {
		return 1
	}
	r := cq.Evaluate(rewritten.BindParams(sessionValues(session)), inst)
	kept := 0
	for _, row := range o {
		if cq.ContainsRow(r, row) {
			kept++
		}
	}
	return float64(kept) / float64(len(o))
}

// describeRewriting renders a one-line explanation.
func describeRewriting(r Rewriting) string {
	return fmt.Sprintf("narrowed query: %s", r.SQL)
}
