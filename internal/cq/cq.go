// Package cq implements the conjunctive-query (CQ) intermediate
// representation the access-control machinery reasons over: queries as
// sets of relational atoms plus arithmetic comparisons, translation
// from the SQL AST, homomorphism search, containment with comparisons,
// minimization, and canonical ("frozen") instances.
//
// This is the decidable fragment Blockaid-style compliance checking,
// PQI/NQI disclosure checking, and contained rewriting all operate in;
// SQL constructs outside the fragment are rejected by the translator
// and handled conservatively by callers.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqlvalue"
)

// TermKind distinguishes the three kinds of terms.
type TermKind uint8

// Term kinds.
const (
	KindVar TermKind = iota
	KindConst
	KindParam
)

// Term is a variable, a constant, or a named parameter (a runtime
// constant generic over principals, e.g. ?MyUId). A Term is 56 bytes:
// the kind, the one name a variable or a parameter has, and the value
// a constant has.
type Term struct {
	Kind  TermKind
	Name  string         // KindVar, KindParam
	Const sqlvalue.Value // KindConst
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: KindVar, Name: name} }

// C returns a constant term.
func C(v sqlvalue.Value) Term { return Term{Kind: KindConst, Const: v} }

// CInt returns an integer constant term.
func CInt(n int64) Term { return C(sqlvalue.NewInt(n)) }

// CText returns a text constant term.
func CText(s string) Term { return C(sqlvalue.NewText(s)) }

// P returns a parameter term.
func P(name string) Term { return Term{Kind: KindParam, Name: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConst }

// IsParam reports whether the term is a parameter.
func (t Term) IsParam() bool { return t.Kind == KindParam }

// Key returns a canonical string identity for the term.
func (t Term) Key() string {
	switch t.Kind {
	case KindVar:
		return "v:" + t.Name
	case KindParam:
		return "p:" + t.Name
	default:
		return "c:" + t.Const.Key()
	}
}

// Equal reports structural equality of terms.
func (t Term) Equal(o Term) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindVar:
		return t.Name == o.Name
	case KindParam:
		return t.Name == o.Name
	default:
		return sqlvalue.Identical(t.Const, o.Const)
	}
}

// String renders the term.
func (t Term) String() string {
	switch t.Kind {
	case KindVar:
		return t.Name
	case KindParam:
		return "?" + t.Name
	default:
		return t.Const.String()
	}
}

// Atom is a relational atom R(t1, ..., tn); Args has one entry per
// column of the table, in declared order.
type Atom struct {
	Table string // lower-cased table name
	Args  []Term
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Table + "(" + strings.Join(parts, ", ") + ")"
}

// Clone deep-copies the atom.
func (a Atom) Clone() Atom {
	out := Atom{Table: a.Table, Args: make([]Term, len(a.Args))}
	copy(out.Args, a.Args)
	return out
}

// CompOp is a comparison operator between terms.
type CompOp uint8

// Comparison operators.
const (
	Eq CompOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the operator's SQL spelling.
func (op CompOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Flip returns the operator with swapped operands (a op b == b Flip(op) a).
func (op CompOp) Flip() CompOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// Negate returns the complement operator (NOT (a op b) == a Negate(op) b).
func (op CompOp) Negate() CompOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	return op
}

// Comparison is Left Op Right.
type Comparison struct {
	Op          CompOp
	Left, Right Term
}

// String renders the comparison.
func (c Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// normalize orients the comparison canonically (variables first, Gt/Ge
// flipped to Lt/Le) for stable printing and deduplication.
func (c Comparison) normalize() Comparison {
	if c.Op == Gt || c.Op == Ge {
		return Comparison{Op: c.Op.Flip(), Left: c.Right, Right: c.Left}
	}
	if (c.Op == Eq || c.Op == Ne) && c.Left.Key() > c.Right.Key() {
		return Comparison{Op: c.Op, Left: c.Right, Right: c.Left}
	}
	return c
}

// Query is a conjunctive query with comparisons:
//
//	Head(HeadNames) :- Atoms, Comps.
//
// Under set semantics. AggApprox marks a query produced by the
// conservative translation of an aggregate SELECT: its head
// over-approximates what the original query reveals.
type Query struct {
	Name      string // optional label (view name, query id)
	Head      []Term
	HeadNames []string // parallel to Head; may be nil
	Atoms     []Atom
	Comps     []Comparison
	AggApprox bool
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	out := &Query{Name: q.Name, AggApprox: q.AggApprox}
	out.Head = append([]Term(nil), q.Head...)
	out.HeadNames = append([]string(nil), q.HeadNames...)
	for _, a := range q.Atoms {
		out.Atoms = append(out.Atoms, a.Clone())
	}
	out.Comps = append([]Comparison(nil), q.Comps...)
	return out
}

// String renders the query in datalog-like notation.
func (q *Query) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	heads := make([]string, len(q.Head))
	for i, t := range q.Head {
		heads[i] = t.String()
	}
	fmt.Fprintf(&b, "%s(%s) :- ", name, strings.Join(heads, ", "))
	var parts []string
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, c := range q.Comps {
		parts = append(parts, c.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

// Vars returns the distinct variables of the query in first-occurrence
// order (atoms, then comparisons, then head).
func (q *Query) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comps {
		add(c.Left)
		add(c.Right)
	}
	for _, t := range q.Head {
		add(t)
	}
	return out
}

// Params returns the distinct parameter names used in the query,
// sorted.
func (q *Query) Params() []string {
	seen := make(map[string]bool)
	add := func(t Term) {
		if t.IsParam() {
			seen[t.Name] = true
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comps {
		add(c.Left)
		add(c.Right)
	}
	for _, t := range q.Head {
		add(t)
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Substitute returns a copy of the query with each term rewritten by
// sub (applied to variables and parameters; constants pass through).
func (q *Query) Substitute(sub func(Term) Term) *Query {
	mapTerm := func(t Term) Term {
		if t.IsConst() {
			return t
		}
		return sub(t)
	}
	out := &Query{Name: q.Name, AggApprox: q.AggApprox, HeadNames: append([]string(nil), q.HeadNames...)}
	for _, t := range q.Head {
		out.Head = append(out.Head, mapTerm(t))
	}
	for _, a := range q.Atoms {
		na := Atom{Table: a.Table, Args: make([]Term, len(a.Args))}
		for i, t := range a.Args {
			na.Args[i] = mapTerm(t)
		}
		out.Atoms = append(out.Atoms, na)
	}
	for _, c := range q.Comps {
		out.Comps = append(out.Comps, Comparison{Op: c.Op, Left: mapTerm(c.Left), Right: mapTerm(c.Right)})
	}
	return out
}

// BindParams replaces parameter terms by constants from vals; missing
// parameters are left in place.
func (q *Query) BindParams(vals map[string]sqlvalue.Value) *Query {
	return q.Substitute(func(t Term) Term {
		if t.IsParam() {
			if v, ok := vals[t.Name]; ok {
				return C(v)
			}
		}
		return t
	})
}

// RenameVars returns a copy with every variable prefixed, to make two
// queries variable-disjoint before combined reasoning.
func (q *Query) RenameVars(prefix string) *Query {
	return q.Substitute(func(t Term) Term {
		if t.IsVar() {
			return V(prefix + t.Name)
		}
		return t
	})
}

// NormalizeHead rewrites the head to its information content: head
// positions holding constants or parameters (values the caller already
// knows) are dropped, as are duplicate occurrences of the same term.
// Used when queries are compared as information carriers (policies,
// extraction) rather than executed.
func (q *Query) NormalizeHead() {
	var head []Term
	var names []string
	seen := make(map[string]bool)
	for i, t := range q.Head {
		if t.IsConst() || t.IsParam() {
			continue
		}
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		head = append(head, t)
		if i < len(q.HeadNames) {
			names = append(names, q.HeadNames[i])
		} else {
			names = append(names, "")
		}
	}
	q.Head = head
	q.HeadNames = names
}

// UCQ is a union of conjunctive queries (all with compatible heads).
type UCQ []*Query

// String renders each disjunct on its own line.
func (u UCQ) String() string {
	parts := make([]string, len(u))
	for i, q := range u {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\nUNION ")
}

// Fact is a ground atom known to hold (or not) in the database,
// derived from trace observations.
type Fact struct {
	Atom    Atom // all args constant
	Negated bool // true: known NOT to hold (from an empty query result)
}

// String renders the fact.
func (f Fact) String() string {
	if f.Negated {
		return "NOT " + f.Atom.String()
	}
	return f.Atom.String()
}
