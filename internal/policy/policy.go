// Package policy represents data-access policies as sets of
// parameterized SQL views, the form used throughout the paper: each
// view is a SELECT over base tables whose named parameters (?MyUId,
// ?MyRole, ...) refer to attributes of the current principal. A
// principal may see exactly the union of the views' answers.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// View is one parameterized policy view.
type View struct {
	Name string
	SQL  string
	Stmt *sqlparser.SelectStmt
	// CQs is the translated union of conjunctive queries; each
	// disjunct carries Name.
	CQs cq.UCQ
}

// Policy is an allow-list of views over a schema.
type Policy struct {
	Schema *schema.Schema
	Views  []*View
}

// New builds a policy from named view SQL. Every view must be inside
// the conjunctive fragment (the fragment the paper's machinery is
// defined for).
func New(s *schema.Schema, views map[string]string) (*Policy, error) {
	names := make([]string, 0, len(views))
	for n := range views {
		names = append(names, n)
	}
	sort.Strings(names)
	p := &Policy{Schema: s}
	for _, n := range names {
		if err := p.Add(n, views[n]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustNew is New, panicking on error; for fixtures.
func MustNew(s *schema.Schema, views map[string]string) *Policy {
	p, err := New(s, views)
	if err != nil {
		panic(err)
	}
	return p
}

// Add parses and appends one view.
func (p *Policy) Add(name, sql string) error {
	stmt, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return fmt.Errorf("policy: view %s: %w", name, err)
	}
	ucq, err := (&cq.Translator{Schema: p.Schema}).TranslateSelect(stmt)
	if err != nil {
		return fmt.Errorf("policy: view %s: %w", name, err)
	}
	for _, q := range ucq {
		q.Name = name
		// Views are information carriers: constants and parameters in
		// the head reveal nothing, so normalize them away for
		// containment reasoning and visibility checking.
		q.NormalizeHead()
	}
	p.Views = append(p.Views, &View{Name: name, SQL: sql, Stmt: stmt, CQs: ucq})
	return nil
}

// Clone returns a shallow copy with an independent view list.
func (p *Policy) Clone() *Policy {
	return &Policy{Schema: p.Schema, Views: append([]*View(nil), p.Views...)}
}

// View returns the view by name.
func (p *Policy) View(name string) (*View, bool) {
	for _, v := range p.Views {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// Params returns the distinct parameter names used across all views,
// sorted. These are the session attributes the enforcement point must
// supply (e.g. MyUId).
func (p *Policy) Params() []string {
	seen := make(map[string]bool)
	for _, v := range p.Views {
		for _, q := range v.CQs {
			for _, prm := range q.Params() {
				seen[prm] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Disjuncts returns every CQ disjunct of every view, with parameters
// bound from session when non-nil.
func (p *Policy) Disjuncts(session map[string]sqlvalue.Value) []*cq.Query {
	var out []*cq.Query
	for _, v := range p.Views {
		for _, q := range v.CQs {
			if session != nil {
				out = append(out, q.BindParams(session))
			} else {
				out = append(out, q)
			}
		}
	}
	return out
}

// Indexes is the census of the access paths allowed reads carry, as
// table name to index columns: per table some view reads, the non-REAL
// columns every view atom over it pins to a parameter or a constant,
// those a parameter pins in every atom first (no ordered range holds
// what a REAL equality accepts: NaN equals every number under '='). A
// table whose key leads with those columns, or lies among them, has none.
func (p *Policy) Indexes() map[string][]string {
	pins := map[string][]cq.TermKind{} // per column, the least pin of any atom: KindVar < KindConst < KindParam
	for _, q := range p.Disjuncts(nil) {
		for _, a := range q.Atoms {
			pn, seen := pins[a.Table]
			for i, t := range a.Args {
				if !seen {
					pn = append(pn, t.Kind)
				}
				pn[i] = min(pn[i], t.Kind)
			}
			pins[a.Table] = pn
		}
	}
	out := map[string][]string{}
	for _, t := range p.Schema.Tables() {
		pn, cols := pins[strings.ToLower(t.Name)], []string(nil)
		pinned := func(col string) bool {
			i, _ := t.ColumnIndex(col)
			return pn != nil && pn[i] != cq.KindVar && t.Columns[i].Type != sqlvalue.Real
		}
		for _, kind := range []cq.TermKind{cq.KindParam, cq.KindConst} {
			for i, c := range t.Columns {
				if pinned(c.Name) && pn[i] == kind {
					cols = append(cols, c.Name)
				}
			}
		}
		served := len(cols) == 0
		for _, key := range append([][]string{t.PrimaryKey}, t.UniqueKeys...) {
			n := 0 // the key's leading columns that are pinned
			for n < len(key) && pinned(key[n]) {
				n++
			}
			served = served || n > 0 && n == min(len(key), len(cols))
		}
		if !served {
			out[t.Name] = cols
		}
	}
	return out
}

// String renders the policy as named view definitions, one per line.
func (p *Policy) String() string {
	var b strings.Builder
	for _, v := range p.Views {
		fmt.Fprintf(&b, "%s: %s\n", v.Name, v.SQL)
	}
	return b.String()
}

// Fingerprint returns a stable identity for the policy contents, used
// to invalidate decision caches when the policy changes.
func (p *Policy) Fingerprint() string {
	parts := make([]string, 0, len(p.Views))
	for _, v := range p.Views {
		for _, q := range v.CQs {
			parts = append(parts, q.CanonicalKey())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// Subsumes reports whether view a's information is derivable from
// view b's answer (a is redundant given b), chasing the schema's
// foreign keys as inclusion dependencies — used by extraction
// minimization and policy diffing.
func Subsumes(s *schema.Schema, a, b *View) bool {
	return cq.InfoContainsUCQ(s, a.CQs, b.CQs)
}

// DiffResult reports the comparison of two policies.
type DiffResult struct {
	// OnlyA are views of A not covered by any view of B, and vice
	// versa. "Covered" means contained in some single view of the
	// other policy.
	OnlyA []*View
	OnlyB []*View
}

// Diff compares policies by per-view containment.
func Diff(a, b *Policy) DiffResult {
	var out DiffResult
	coveredBy := func(v *View, p *Policy) bool {
		for _, w := range p.Views {
			if Subsumes(p.Schema, v, w) {
				return true
			}
		}
		return false
	}
	for _, v := range a.Views {
		if !coveredBy(v, b) {
			out.OnlyA = append(out.OnlyA, v)
		}
	}
	for _, v := range b.Views {
		if !coveredBy(v, a) {
			out.OnlyB = append(out.OnlyB, v)
		}
	}
	return out
}

// Minimize drops views that are subsumed by other views, returning a
// new policy. Ties (mutually equivalent views) keep the
// lexicographically first name.
func Minimize(p *Policy) *Policy {
	out := &Policy{Schema: p.Schema}
	views := append([]*View(nil), p.Views...)
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	for i, v := range views {
		redundant := false
		for j, w := range views {
			if i == j {
				continue
			}
			if Subsumes(p.Schema, v, w) {
				// v ⊆ w: drop v unless they're equivalent and v comes
				// first.
				if Subsumes(p.Schema, w, v) && i < j {
					continue
				}
				redundant = true
				break
			}
		}
		if !redundant {
			out.Views = append(out.Views, v)
		}
	}
	return out
}
