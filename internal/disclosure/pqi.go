// Package disclosure implements the paper's §4 — policy evaluation
// for sensitive-data disclosure:
//
//   - PQI/NQI (§4.3): prior-agnostic criteria adapted from Benedikt et
//     al.'s positive/negative query implication to view-based access
//     control. PQI_S(V) holds when revealing the views' contents can
//     render a possible answer to the sensitive query S certain; NQI
//     when it can render one impossible. Both are checked over the
//     views and their visible-column joins, chasing foreign keys as
//     inclusion dependencies.
//
//   - k-anonymity (§4.3's other prior-agnostic criterion): the minimum
//     quasi-identifier group size in a released view, computed over a
//     concrete instance and extended to multi-table joins.
//
//   - Bayesian privacy (§4.2, the baseline the paper argues against):
//     exact posterior computation over small tuple universes, used to
//     demonstrate how the disclosure verdict shifts with the assumed
//     prior.
package disclosure

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/acerr"
	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
)

// Verdict reports an implication finding.
type Verdict struct {
	Holds bool
	// Witness explains the finding: the derived view and head mapping.
	Witness string
}

// Word renders the verdict: "witness" when the search found one, "no
// witness found" when it did not. The search is sound, not complete,
// so the second is not a proof that nothing is disclosed.
func (v Verdict) Word() string {
	if v.Holds {
		return "witness"
	}
	return "no witness found"
}

// maxDerived bounds the number of derived (joined) views considered.
const maxDerived = 256

// PQI checks positive query implication: can the views' contents make
// a possible answer to sensitive certain? Sound witness: a derived
// view u (a view disjunct, or a join of two on visible columns) and a
// head projection α with u|α ⊆ sensitive — every row the adversary
// sees in u is a certain answer to S.
func PQI(p *policy.Policy, sensitive *cq.Query) Verdict {
	return implication(p, sensitive, true)
}

// NQI checks negative query implication: can the views' contents make
// a possible answer impossible? Sound witness: sensitive ⊆ u|α for a
// derived view u — any candidate answer absent from u is ruled out.
func NQI(p *policy.Policy, sensitive *cq.Query) Verdict {
	return implication(p, sensitive, false)
}

// PQISQL and NQISQL accept the sensitive query as SQL.
func PQISQL(p *policy.Policy, sensitiveSQL string) (Verdict, error) {
	q, err := sensitiveCQ(p.Schema, sensitiveSQL)
	if err != nil {
		return Verdict{}, err
	}
	return PQI(p, q), nil
}

// NQISQL is NQI over SQL input.
func NQISQL(p *policy.Policy, sensitiveSQL string) (Verdict, error) {
	q, err := sensitiveCQ(p.Schema, sensitiveSQL)
	if err != nil {
		return Verdict{}, err
	}
	return NQI(p, q), nil
}

func sensitiveCQ(s *schema.Schema, sql string) (*cq.Query, error) {
	ucq, err := cq.FromSQL(s, sql)
	if err != nil {
		return nil, err
	}
	if len(ucq) != 1 {
		return nil, fmt.Errorf("disclosure: sensitive query must be a single conjunctive query")
	}
	return ucq[0], nil
}

func implication(p *policy.Policy, sensitive *cq.Query, positive bool) Verdict {
	derived := derivedViews(p)
	s := sensitive.Clone()
	// Sensitive queries are evaluated for a generic principal; bind no
	// parameters (view params stay opaque and only match themselves).
	sChased := ChaseFKs(p.Schema, s)
	for _, u := range derived {
		uChased := ChaseFKs(p.Schema, u.q)
		for _, alpha := range headMaps(len(s.Head), u.q.Head) {
			proj := projectHead(u.q, alpha)
			projChased := projectHead(uChased, alpha)
			var holds bool
			if positive {
				// u|α ⊆ S: containment of the chased projection.
				holds = viewSatisfiable(p.Schema, u.q) && cq.Contains(projChased, s)
			} else {
				// S ⊆ u|α.
				holds = cq.Contains(sChased, proj)
			}
			if holds {
				return Verdict{
					Holds:   true,
					Witness: fmt.Sprintf("%s with head positions %v", u.describe, alpha),
				}
			}
		}
	}
	return Verdict{}
}

// derived is a candidate adversary-computable view.
type derived struct {
	q        *cq.Query
	describe string
}

// derivedViews returns every view disjunct plus every pairwise join of
// two disjuncts on a pair of visible (head) columns.
func derivedViews(p *policy.Policy) []derived {
	var singles []derived
	for _, v := range p.Views {
		for _, q := range v.CQs {
			singles = append(singles, derived{q: q, describe: "view " + v.Name})
		}
	}
	out := append([]derived(nil), singles...)
	for i := 0; i < len(singles) && len(out) < maxDerived; i++ {
		for j := i; j < len(singles) && len(out) < maxDerived; j++ {
			a := singles[i].q.RenameVars("l_")
			b := singles[j].q.RenameVars("r_")
			for ai, at := range a.Head {
				if !at.IsVar() {
					continue
				}
				for bi, bt := range b.Head {
					if !bt.IsVar() || (i == j && ai == bi) {
						continue
					}
					joined := &cq.Query{
						Atoms: append(append([]cq.Atom(nil), a.Atoms...), b.Atoms...),
						Comps: append(append([]cq.Comparison(nil), a.Comps...), b.Comps...),
					}
					joined.Head = append(append([]cq.Term(nil), a.Head...), b.Head...)
					joined.HeadNames = append(append([]string(nil), a.HeadNames...), b.HeadNames...)
					joined.Comps = append(joined.Comps, cq.Comparison{Op: cq.Eq, Left: at, Right: bt})
					// Fold the equality into a substitution for cleaner
					// homomorphism behaviour.
					folded := joined.Substitute(func(t cq.Term) cq.Term {
						if t.IsVar() && t.Name == bt.Name {
							return at
						}
						return t
					})
					folded.Comps = dropTrivialEq(folded.Comps)
					out = append(out, derived{
						q: folded,
						describe: fmt.Sprintf("%s ⋈ %s on (%s = %s)",
							singles[i].describe, singles[j].describe, headName(a, ai), headName(b, bi)),
					})
					if len(out) >= maxDerived {
						return out
					}
				}
			}
		}
	}
	return out
}

func dropTrivialEq(comps []cq.Comparison) []cq.Comparison {
	var out []cq.Comparison
	for _, c := range comps {
		if c.Op == cq.Eq && c.Left.Equal(c.Right) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func headName(q *cq.Query, i int) string {
	if i < len(q.HeadNames) && q.HeadNames[i] != "" {
		return q.HeadNames[i]
	}
	return fmt.Sprintf("col%d", i)
}

// headMaps enumerates injective assignments of n sensitive head
// positions to positions of the derived head.
func headMaps(n int, head []cq.Term) [][]int {
	var out [][]int
	var rec func(cur []int, used map[int]bool)
	rec = func(cur []int, used map[int]bool) {
		if len(out) > 512 {
			return
		}
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range head {
			if used[i] {
				continue
			}
			used[i] = true
			rec(append(cur, i), used)
			used[i] = false
		}
	}
	rec(nil, map[int]bool{})
	return out
}

// projectHead returns q with its head restricted to the given
// positions.
func projectHead(q *cq.Query, positions []int) *cq.Query {
	out := q.Clone()
	out.Head = nil
	out.HeadNames = nil
	for _, i := range positions {
		out.Head = append(out.Head, q.Head[i])
		out.HeadNames = append(out.HeadNames, headName(q, i))
	}
	return out
}

// viewSatisfiable reports whether the view can return rows on some
// instance (a PQI witness needs a producible row).
func viewSatisfiable(s *schema.Schema, q *cq.Query) bool {
	_, _, err := cq.Freeze(s, q)
	return err == nil
}

// ChaseFKs is re-exported from cq for callers of the disclosure API.
func ChaseFKs(s *schema.Schema, q *cq.Query) *cq.Query { return cq.ChaseFKs(s, q) }

// Report audits a policy against a set of named sensitive queries and
// renders one line per finding.
type Report struct {
	Findings []Finding
}

// Finding is the audit outcome for one sensitive query.
type Finding struct {
	Name string
	PQI  Verdict
	NQI  Verdict
}

// Audit checks PQI and NQI for every sensitive query. The ctx bounds
// the audit; cancellation between queries returns acerr.ErrCanceled.
func Audit(ctx context.Context, p *policy.Policy, sensitive map[string]string) (*Report, error) {
	names := make([]string, 0, len(sensitive))
	for n := range sensitive {
		names = append(names, n)
	}
	sort.Strings(names)
	rep := &Report{}
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			return nil, acerr.Canceled(err)
		}
		q, err := sensitiveCQ(p.Schema, sensitive[n])
		if err != nil {
			return nil, fmt.Errorf("disclosure: %s: %w", n, err)
		}
		rep.Findings = append(rep.Findings, Finding{
			Name: n,
			PQI:  PQI(p, q),
			NQI:  NQI(p, q),
		})
	}
	return rep, nil
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s: PQI=%s NQI=%s", f.Name, f.PQI.Word(), f.NQI.Word())
		if f.PQI.Holds {
			fmt.Fprintf(&b, " [PQI via %s]", f.PQI.Witness)
		}
		if f.NQI.Holds {
			fmt.Fprintf(&b, " [NQI via %s]", f.NQI.Witness)
		}
		b.WriteString("\n")
	}
	return b.String()
}
