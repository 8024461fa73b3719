// Package extract implements the paper's §3 proposal — policy
// extraction: automatically generating a maximally restrictive policy
// that allows an application's current behaviour.
//
// Two extractors are provided, mirroring §3.2:
//
//   - Symbolic (language-based, §3.2.1): symbolically execute each
//     handler of an appdsl application, collect every (query, path
//     condition) pair, and turn each into a view — session attributes
//     become policy parameters, request parameters become exposed
//     columns, and non-empty-result path conditions become conjoined
//     guard subqueries.
//
//   - Mining (language-agnostic/black-box, §3.2.2): observe concrete
//     query traces across multiple principals, anti-unify aligned
//     queries (session-correlated constants become parameters,
//     varying constants become exposed columns), infer access-check
//     guards from value correlations, optionally confirm them by
//     active mutation probing, and minimize the resulting policy.
package extract

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/appdsl"
	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// freeParamPrefix marks request-parameter placeholders during
// translation; they are generalized into exposed head variables.
const freeParamPrefix = "__free_"

// SymbolicExtract derives a draft policy from the application's
// handler code by symbolic execution.
func SymbolicExtract(s *schema.Schema, app *appdsl.App) (*policy.Policy, error) {
	var views []*cq.Query
	for _, h := range app.Handlers {
		paths, err := appdsl.SymbolicExecute(h)
		if err != nil {
			return nil, fmt.Errorf("extract: handler %s: %w", h.Name, err)
		}
		seen := make(map[string]bool)
		for _, p := range paths {
			for i := range p.Issued {
				vs, err := issuanceViews(s, app, p.Issued, i)
				if err != nil {
					return nil, fmt.Errorf("extract: handler %s: %w", h.Name, err)
				}
				for _, v := range vs {
					key := v.CanonicalKey()
					if seen[key] {
						continue
					}
					seen[key] = true
					views = append(views, v)
				}
			}
		}
	}
	return assemblePolicy(s, views)
}

// issuanceViews builds the view CQ(s) for issuance i of a path: the
// query's own disjuncts, each conjoined with the bodies of the
// non-empty guards in its path condition, with free request
// parameters generalized and exposed.
func issuanceViews(s *schema.Schema, app *appdsl.App, issued []appdsl.Issuance, i int) ([]*cq.Query, error) {
	// Translate every issuance this one depends on (guards +
	// row sources), each with a distinct variable prefix so their
	// variables stay disjoint yet internally consistent.
	needed := map[int]bool{}
	var mark func(idx int)
	mark = func(idx int) {
		if needed[idx] {
			return
		}
		needed[idx] = true
		for _, a := range issued[idx].Assumes {
			if a.NonEmpty {
				mark(a.Issuance)
			}
		}
		for _, src := range issued[idx].RowSources {
			if src < idx {
				mark(src)
			}
		}
	}
	for _, a := range issued[i].Assumes {
		if a.NonEmpty {
			mark(a.Issuance)
		}
	}
	for _, arg := range issued[i].Args {
		if rr, ok := arg.(appdsl.RowRef); ok {
			if src, ok2 := issued[i].RowSources[rr.Row]; ok2 {
				mark(src)
			}
		}
	}

	ctx := make(map[int]*translated)
	var order []int
	for idx := range needed {
		order = append(order, idx)
	}
	sort.Ints(order)
	for _, idx := range order {
		tq, err := translateIssuance(s, app, issued, idx, ctx, fmt.Sprintf("g%d_", idx))
		if err != nil {
			return nil, err
		}
		ctx[idx] = tq
	}

	main, err := translateIssuance(s, app, issued, i, ctx, "m_")
	if err != nil {
		return nil, err
	}

	var out []*cq.Query
	for _, disj := range main.disjuncts {
		v := disj.Clone()
		// Conjoin guard bodies (first disjunct of each guard; guards
		// in our DSL are single-disjunct access checks).
		for _, idx := range order {
			g := ctx[idx].disjuncts[0]
			v.Atoms = append(v.Atoms, g.Atoms...)
			v.Comps = append(v.Comps, g.Comps...)
		}
		generalizeFreeParams(v)
		v.NormalizeHead()
		v = cq.ReduceFKAtoms(s, v)
		out = append(out, cq.Minimize(v))
	}
	return out, nil
}

// translated is an issuance converted to CQ form.
type translated struct {
	disjuncts []*cq.Query
}

// translateIssuance translates issuance idx with symbolic arguments:
// session attributes become policy parameters, request parameters
// become free-parameter placeholders, and RowRefs resolve to the head
// term of the producing issuance's translation in ctx.
func translateIssuance(s *schema.Schema, app *appdsl.App, issued []appdsl.Issuance, idx int, ctx map[int]*translated, prefix string) (*translated, error) {
	iss := issued[idx]
	sel, err := sqlparser.ParseSelect(iss.SQL)
	if err != nil {
		return nil, err
	}
	// Replace positional parameters with symbolic named parameters.
	k := -1
	var replErr error
	replaced := sqlparser.MapExprs(sel, func(e sqlparser.Expr) sqlparser.Expr {
		p, ok := e.(*sqlparser.Param)
		if !ok || p.Name != "" {
			return e
		}
		k = p.Index
		if k >= len(iss.Args) {
			replErr = fmt.Errorf("extract: %q has more parameters than arguments", iss.SQL)
			return e
		}
		switch a := iss.Args[k].(type) {
		case appdsl.Lit:
			return &sqlparser.Literal{Value: a.Value}
		case appdsl.SessionRef:
			name, ok := app.SessionParam[a.Name]
			if !ok {
				name = "My" + capitalize(a.Name)
			}
			return &sqlparser.Param{Name: name, Index: -1}
		case appdsl.ParamRef:
			return &sqlparser.Param{Name: freeParamPrefix + a.Name, Index: -1}
		case appdsl.RowRef:
			// Marker resolved below at the CQ level.
			return &sqlparser.Param{Name: rowRefMarker(a), Index: -1}
		}
		replErr = fmt.Errorf("extract: unsupported argument %T", iss.Args[k])
		return e
	}).(*sqlparser.SelectStmt)
	if replErr != nil {
		return nil, replErr
	}

	ucq, err := (&cq.Translator{Schema: s}).TranslateSelect(replaced)
	if err != nil {
		return nil, err
	}
	out := &translated{}
	for di, q := range ucq {
		rq := q.RenameVars(prefix)
		// Resolve RowRef markers against the producing issuance's head.
		rq = rq.Substitute(func(t cq.Term) cq.Term {
			if !t.IsParam() || !strings.HasPrefix(t.Name, "__row_") {
				return t
			}
			rr, ok := parseRowRefMarker(t.Name)
			if !ok {
				return t
			}
			src, ok := iss.RowSources[rr.Row]
			if !ok {
				return t
			}
			srcT, ok := ctx[src]
			if !ok || len(srcT.disjuncts) == 0 {
				return t
			}
			g := srcT.disjuncts[0]
			for hi, name := range g.HeadNames {
				if strings.EqualFold(name, rr.Column) {
					return g.Head[hi]
				}
			}
			return t
		})
		out.disjuncts = append(out.disjuncts, rq)
		_ = di
	}
	if len(out.disjuncts) == 0 {
		return nil, fmt.Errorf("extract: %q translated to no disjuncts", iss.SQL)
	}
	return out, nil
}

// capitalize upper-cases the first byte for parameter naming.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-32) + s[1:]
	}
	return s
}

func rowRefMarker(r appdsl.RowRef) string {
	return "__row_" + r.Row + "__col_" + r.Column
}

func parseRowRefMarker(s string) (appdsl.RowRef, bool) {
	if !strings.HasPrefix(s, "__row_") {
		return appdsl.RowRef{}, false
	}
	rest := strings.TrimPrefix(s, "__row_")
	parts := strings.SplitN(rest, "__col_", 2)
	if len(parts) != 2 {
		return appdsl.RowRef{}, false
	}
	return appdsl.RowRef{Row: parts[0], Column: parts[1]}, true
}

// generalizeFreeParams replaces free request-parameter placeholders
// with fresh variables exposed in the head: the maximally restrictive
// view that allows the query for every value of the parameter.
func generalizeFreeParams(q *cq.Query) {
	vars := map[string]cq.Term{}
	repl := func(t cq.Term) cq.Term {
		if t.IsParam() && strings.HasPrefix(t.Name, freeParamPrefix) {
			v, ok := vars[t.Name]
			if !ok {
				v = cq.V("free_" + strings.TrimPrefix(t.Name, freeParamPrefix))
				vars[t.Name] = v
			}
			return v
		}
		return t
	}
	for i, t := range q.Head {
		q.Head[i] = repl(t)
	}
	for ai := range q.Atoms {
		for i, t := range q.Atoms[ai].Args {
			q.Atoms[ai].Args[i] = repl(t)
		}
	}
	for i := range q.Comps {
		q.Comps[i].Left = repl(q.Comps[i].Left)
		q.Comps[i].Right = repl(q.Comps[i].Right)
	}
	// Expose each generalized variable.
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	have := map[string]bool{}
	for _, t := range q.Head {
		if t.IsVar() {
			have[t.Name] = true
		}
	}
	for _, n := range names {
		v := vars[n]
		if !have[v.Name] {
			q.Head = append(q.Head, v)
			q.HeadNames = append(q.HeadNames, v.Name)
		}
	}
}

// assemblePolicy renders views to SQL, names them, drops redundant
// ones (policy-size minimization), and builds the policy.
func assemblePolicy(s *schema.Schema, views []*cq.Query) (*policy.Policy, error) {
	// Drop views subsumed by others.
	var kept []*cq.Query
	for i, v := range views {
		redundant := false
		for j, w := range views {
			if i == j {
				continue
			}
			if cq.Contains(v, w) {
				if cq.Contains(w, v) && i < j {
					continue // equivalent: keep the first
				}
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, v)
		}
	}
	p := &policy.Policy{Schema: s}
	for i, v := range kept {
		sql, err := cq.ToSQL(s, v)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("X%d", i+1)
		if err := p.Add(name, sql); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Accuracy compares an extracted policy against a ground truth.
type Accuracy struct {
	// TruthCovered counts ground-truth views contained in some
	// extracted view (recall numerator).
	TruthCovered int
	TruthTotal   int
	// ExtractedSound counts extracted views contained in some
	// ground-truth view (precision numerator: no over-generalization).
	ExtractedSound int
	ExtractedTotal int
}

// Recall is the fraction of ground-truth behaviour the extraction
// allows.
func (a Accuracy) Recall() float64 {
	if a.TruthTotal == 0 {
		return 1
	}
	return float64(a.TruthCovered) / float64(a.TruthTotal)
}

// Precision is the fraction of extracted views that don't exceed the
// ground truth.
func (a Accuracy) Precision() float64 {
	if a.ExtractedTotal == 0 {
		return 1
	}
	return float64(a.ExtractedSound) / float64(a.ExtractedTotal)
}

// Exact reports a perfect extraction.
func (a Accuracy) Exact() bool {
	return a.TruthCovered == a.TruthTotal && a.ExtractedSound == a.ExtractedTotal
}

// Compare measures extraction accuracy by view containment.
func Compare(extracted, truth *policy.Policy) Accuracy {
	var acc Accuracy
	acc.TruthTotal = len(truth.Views)
	acc.ExtractedTotal = len(extracted.Views)
	for _, tv := range truth.Views {
		for _, ev := range extracted.Views {
			if policy.Subsumes(truth.Schema, tv, ev) {
				acc.TruthCovered++
				break
			}
		}
	}
	for _, ev := range extracted.Views {
		for _, tv := range truth.Views {
			if policy.Subsumes(truth.Schema, ev, tv) {
				acc.ExtractedSound++
				break
			}
		}
	}
	return acc
}
