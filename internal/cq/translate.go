package cq

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// ErrNotCQ is wrapped by translation errors for SQL outside the
// conjunctive-query fragment; callers fall back to conservative
// handling.
var ErrNotCQ = errors.New("query outside the conjunctive fragment")

// maxBranches bounds UCQ expansion of OR and IN-lists.
const maxBranches = 64

// Translator converts SQL SELECTs to unions of conjunctive queries,
// resolving columns against a schema. Translation itself is stateless;
// a translator that is kept also caches statement plans (plan.go). It
// is safe for concurrent use and must not be copied after first use.
type Translator struct {
	Schema *schema.Schema

	mu        sync.RWMutex
	plans     map[*sqlparser.SelectStmt]*StmtPlan
	shapes    map[string]uint64 // rendered templates -> StmtPlan.Shape
	nextShape uint64
}

// FromSQL parses the SQL and translates it.
func FromSQL(s *schema.Schema, sql string) (UCQ, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return (&Translator{Schema: s}).TranslateSelect(sel)
}

// MustFromSQL is FromSQL, panicking on error; for fixtures.
func MustFromSQL(s *schema.Schema, sql string) UCQ {
	u, err := FromSQL(s, sql)
	if err != nil {
		panic(err)
	}
	return u
}

// tframe is one query level's alias scope.
type tframe struct {
	parent  *tframe
	entries []tentry
}

type tentry struct {
	name  string // lower-cased alias or table name
	table *schema.Table
	atom  int // index into the builder's atoms
}

// branch is one disjunct under construction.
type branch struct {
	atoms []Atom
	comps []Comparison
}

func (b *branch) clone() *branch {
	nb := &branch{}
	for _, a := range b.atoms {
		nb.atoms = append(nb.atoms, a.Clone())
	}
	nb.comps = append([]Comparison(nil), b.comps...)
	return nb
}

type translation struct {
	tr       *Translator
	branches []*branch
	fresh    int
	// slots, when set, makes every literal and parameter in term
	// position a numbered placeholder (plan.go) instead of itself.
	slots *slotTable
}

func (t *translation) notCQ(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotCQ, fmt.Sprintf(format, args...))
}

func (t *translation) freshPrefix() string {
	t.fresh++
	return fmt.Sprintf("x%d", t.fresh)
}

// TranslateSelect converts the SELECT into a UCQ. UNION arms become
// additional disjuncts (the natural fit: a union of conjunctive
// queries).
func (tr *Translator) TranslateSelect(sel *sqlparser.SelectStmt) (UCQ, error) {
	return tr.translateSelect(sel, nil)
}

func (tr *Translator) translateSelect(sel *sqlparser.SelectStmt, slots *slotTable) (UCQ, error) {
	out, err := tr.translateOne(sel, slots)
	if err != nil {
		return nil, err
	}
	for _, u := range sel.Union {
		arm, err := tr.translateSelect(u.Select, slots)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && len(arm) > 0 && len(arm[0].Head) != len(out[0].Head) {
			return nil, fmt.Errorf("cq: UNION arms have different head widths")
		}
		out = append(out, arm...)
	}
	if len(out) > maxBranches {
		return nil, fmt.Errorf("%w: union too large (%d disjuncts)", ErrNotCQ, len(out))
	}
	return out, nil
}

func (tr *Translator) translateOne(sel *sqlparser.SelectStmt, slots *slotTable) (UCQ, error) {
	t := &translation{tr: tr, branches: []*branch{{}}, slots: slots}
	frame := &tframe{}
	if err := t.addFrom(sel, frame); err != nil {
		return nil, err
	}
	if sel.Where != nil {
		if err := t.addCondition(sel.Where, frame); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		// HAVING constrains aggregates; conservatively it reveals no
		// more than the underlying rows, which AggApprox covers.
		if !sqlparser.IsAggregate(sel.Having) {
			if err := t.addCondition(sel.Having, frame); err != nil {
				return nil, err
			}
		}
	}

	// Build heads.
	var out UCQ
	for _, br := range t.branches {
		q := &Query{Atoms: br.atoms, Comps: br.comps}
		agg := false
		for _, it := range sel.Items {
			if it.Expr != nil && sqlparser.IsAggregate(it.Expr) {
				agg = true
				break
			}
		}
		if agg || len(sel.GroupBy) > 0 {
			// Conservative over-approximation: an aggregate answer is
			// derived from the matching rows, so treat the query as
			// revealing every column of every atom.
			q.AggApprox = true
			for ai, a := range q.Atoms {
				tab, _ := tr.Schema.Table(a.Table)
				for ci, arg := range a.Args {
					q.Head = append(q.Head, arg)
					name := fmt.Sprintf("a%d_c%d", ai, ci)
					if tab != nil {
						name = tab.Columns[ci].Name
					}
					q.HeadNames = append(q.HeadNames, name)
				}
			}
		} else {
			for _, it := range sel.Items {
				if err := t.addHeadItem(q, it, frame, br); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, q)
	}
	for _, q := range out {
		normalizeEq(q)
	}
	return out, nil
}

// addFrom registers the FROM tables of sel into every branch and the
// frame. Only base tables and inner joins are in the fragment.
func (t *translation) addFrom(sel *sqlparser.SelectStmt, frame *tframe) error {
	for _, te := range sel.From {
		if err := t.addTableExpr(te, frame); err != nil {
			return err
		}
	}
	return nil
}

func (t *translation) addTableExpr(te sqlparser.TableExpr, frame *tframe) error {
	switch x := te.(type) {
	case *sqlparser.TableRef:
		tab, ok := t.tr.Schema.Table(x.Name)
		if !ok {
			return fmt.Errorf("cq: unknown table %q", x.Name)
		}
		name := strings.ToLower(x.Name)
		if x.Alias != "" {
			name = strings.ToLower(x.Alias)
		}
		prefix := t.freshPrefix()
		args := make([]Term, len(tab.Columns))
		for i, c := range tab.Columns {
			args[i] = V(prefix + "_" + strings.ToLower(c.Name))
		}
		atom := Atom{Table: strings.ToLower(tab.Name), Args: args}
		idx := -1
		for _, br := range t.branches {
			br.atoms = append(br.atoms, atom.Clone())
			idx = len(br.atoms) - 1
		}
		frame.entries = append(frame.entries, tentry{name: name, table: tab, atom: idx})
		return nil
	case *sqlparser.JoinExpr:
		if x.Type != sqlparser.InnerJoin {
			return t.notCQ("outer join")
		}
		if err := t.addTableExpr(x.Left, frame); err != nil {
			return err
		}
		if err := t.addTableExpr(x.Right, frame); err != nil {
			return err
		}
		if x.On != nil {
			return t.addCondition(x.On, frame)
		}
		return nil
	}
	return t.notCQ("FROM item %T", te)
}

// resolve maps a column reference to its variable term in each branch.
// All branches share atom layout, so the term is branch-independent.
func (t *translation) resolve(frame *tframe, table, column string) (Term, error) {
	tl, cl := strings.ToLower(table), strings.ToLower(column)
	for f := frame; f != nil; f = f.parent {
		var found Term
		n := 0
		for _, e := range f.entries {
			if tl != "" && e.name != tl {
				continue
			}
			if ci, ok := e.table.ColumnIndex(cl); ok {
				found = t.branches[0].atoms[e.atom].Args[ci]
				n++
			}
		}
		if n > 1 {
			return Term{}, fmt.Errorf("cq: ambiguous column %q", column)
		}
		if n == 1 {
			return found, nil
		}
	}
	return Term{}, fmt.Errorf("cq: unknown column %s.%s", table, column)
}

// termOf converts a simple scalar expression to a Term.
func (t *translation) termOf(e sqlparser.Expr, frame *tframe) (Term, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		if t.slots != nil {
			return t.slots.literal(x), nil
		}
		return C(x.Value), nil
	case *sqlparser.Param:
		if t.slots != nil {
			return t.slots.param(x), nil
		}
		if x.Name != "" {
			return P(x.Name), nil
		}
		return P(fmt.Sprintf("_pos%d", x.Index)), nil
	case *sqlparser.ColumnRef:
		return t.resolve(frame, x.Table, x.Column)
	}
	return Term{}, t.notCQ("non-atomic term %s", e.SQL())
}

var sqlToCompOp = map[sqlparser.BinaryOp]CompOp{
	sqlparser.OpEq: Eq, sqlparser.OpNe: Ne,
	sqlparser.OpLt: Lt, sqlparser.OpLe: Le,
	sqlparser.OpGt: Gt, sqlparser.OpGe: Ge,
}

// addCondition adds a boolean condition to every branch, splitting
// branches on disjunctions.
func (t *translation) addCondition(e sqlparser.Expr, frame *tframe) error {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			if err := t.addCondition(x.Left, frame); err != nil {
				return err
			}
			return t.addCondition(x.Right, frame)
		case sqlparser.OpOr:
			return t.split([]sqlparser.Expr{x.Left, x.Right}, frame)
		case sqlparser.OpLike:
			return t.notCQ("LIKE")
		default:
			op, ok := sqlToCompOp[x.Op]
			if !ok {
				return t.notCQ("operator %s", sqlparser.OpString(x.Op))
			}
			l, err := t.termOf(x.Left, frame)
			if err != nil {
				return err
			}
			r, err := t.termOf(x.Right, frame)
			if err != nil {
				return err
			}
			t.addComp(Comparison{Op: op, Left: l, Right: r})
			return nil
		}

	case *sqlparser.UnaryExpr:
		if x.Op != '!' {
			return t.notCQ("unary %q in condition", x.Op)
		}
		return t.addNegated(x.Expr, frame)

	case *sqlparser.BetweenExpr:
		v, err := t.termOf(x.Expr, frame)
		if err != nil {
			return err
		}
		lo, err := t.termOf(x.Lo, frame)
		if err != nil {
			return err
		}
		hi, err := t.termOf(x.Hi, frame)
		if err != nil {
			return err
		}
		if x.Not {
			return t.notCQ("NOT BETWEEN")
		}
		t.addComp(Comparison{Op: Ge, Left: v, Right: lo})
		t.addComp(Comparison{Op: Le, Left: v, Right: hi})
		return nil

	case *sqlparser.InExpr:
		if x.Subquery != nil {
			if x.Not {
				return t.notCQ("NOT IN subquery")
			}
			return t.addSubquery(x.Subquery, frame, func(head []Term) ([]Comparison, error) {
				if len(head) != 1 {
					return nil, t.notCQ("IN subquery with %d columns", len(head))
				}
				l, err := t.termOf(x.Expr, frame)
				if err != nil {
					return nil, err
				}
				return []Comparison{{Op: Eq, Left: l, Right: head[0]}}, nil
			})
		}
		l, err := t.termOf(x.Expr, frame)
		if err != nil {
			return err
		}
		if x.Not {
			for _, it := range x.List {
				r, err := t.termOf(it, frame)
				if err != nil {
					return err
				}
				t.addComp(Comparison{Op: Ne, Left: l, Right: r})
			}
			return nil
		}
		var alts []sqlparser.Expr
		for _, it := range x.List {
			alts = append(alts, &sqlparser.BinaryExpr{Op: sqlparser.OpEq, Left: x.Expr, Right: it})
		}
		return t.split(alts, frame)

	case *sqlparser.ExistsExpr:
		if x.Not {
			return t.notCQ("NOT EXISTS")
		}
		return t.addSubquery(x.Subquery, frame, func([]Term) ([]Comparison, error) { return nil, nil })

	case *sqlparser.Literal:
		// WHERE TRUE / WHERE 1.
		v := x.Value
		if (v.Type() == sqlvalue.Bool && v.Bool()) || (v.Type() == sqlvalue.Int && v.Int() != 0) {
			return nil
		}
		return t.notCQ("constant-false condition")

	case *sqlparser.IsNullExpr:
		return t.notCQ("IS NULL")
	}
	return t.notCQ("condition %s", e.SQL())
}

// addNegated handles NOT applied to a condition.
func (t *translation) addNegated(e sqlparser.Expr, frame *tframe) error {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		if op, ok := sqlToCompOp[x.Op]; ok {
			l, err := t.termOf(x.Left, frame)
			if err != nil {
				return err
			}
			r, err := t.termOf(x.Right, frame)
			if err != nil {
				return err
			}
			t.addComp(Comparison{Op: op.Negate(), Left: l, Right: r})
			return nil
		}
		switch x.Op {
		case sqlparser.OpOr: // NOT (a OR b) = NOT a AND NOT b
			if err := t.addNegated(x.Left, frame); err != nil {
				return err
			}
			return t.addNegated(x.Right, frame)
		case sqlparser.OpAnd: // NOT (a AND b) = NOT a OR NOT b
			return t.split([]sqlparser.Expr{
				&sqlparser.UnaryExpr{Op: '!', Expr: x.Left},
				&sqlparser.UnaryExpr{Op: '!', Expr: x.Right},
			}, frame)
		}
	case *sqlparser.UnaryExpr:
		if x.Op == '!' {
			return t.addCondition(x.Expr, frame)
		}
	case *sqlparser.InExpr:
		flip := *x
		flip.Not = !x.Not
		return t.addCondition(&flip, frame)
	}
	return t.notCQ("negation of %s", e.SQL())
}

// split replaces each branch with one copy per alternative condition.
func (t *translation) split(alts []sqlparser.Expr, frame *tframe) error {
	if len(t.branches)*len(alts) > maxBranches {
		return t.notCQ("disjunction too large (%d branches)", len(t.branches)*len(alts))
	}
	origin := t.branches
	var all []*branch
	for _, alt := range alts {
		t.branches = make([]*branch, len(origin))
		for i, br := range origin {
			t.branches[i] = br.clone()
		}
		if err := t.addCondition(alt, frame); err != nil {
			return err
		}
		all = append(all, t.branches...)
	}
	t.branches = all
	return nil
}

// addComp appends a comparison to every branch.
func (t *translation) addComp(c Comparison) {
	for _, br := range t.branches {
		br.comps = append(br.comps, c)
	}
}

// addSubquery translates an EXISTS/IN subquery body into the current
// branches: its atoms and comparisons are conjoined (existential
// semantics matches CQ join under set semantics), then link produces
// extra comparisons tying the subquery head to the outer expression.
func (t *translation) addSubquery(sel *sqlparser.SelectStmt, outer *tframe, link func(head []Term) ([]Comparison, error)) error {
	if len(sel.GroupBy) > 0 || sel.Having != nil || sel.Limit != nil {
		return t.notCQ("subquery with grouping")
	}
	inner := &tframe{parent: outer}
	if err := t.addFrom(sel, inner); err != nil {
		return err
	}
	if sel.Where != nil {
		if err := t.addCondition(sel.Where, inner); err != nil {
			return err
		}
	}
	// Head terms of the subquery.
	var head []Term
	for _, it := range sel.Items {
		if it.Star {
			for _, e := range inner.entries {
				head = append(head, t.branches[0].atoms[e.atom].Args...)
			}
			continue
		}
		if sqlparser.IsAggregate(it.Expr) {
			return t.notCQ("aggregate subquery")
		}
		term, err := t.termOf(it.Expr, inner)
		if err != nil {
			return err
		}
		head = append(head, term)
	}
	comps, err := link(head)
	if err != nil {
		return err
	}
	for _, c := range comps {
		t.addComp(c)
	}
	return nil
}

// addHeadItem appends the head terms of one select item.
func (t *translation) addHeadItem(q *Query, it sqlparser.SelectItem, frame *tframe, br *branch) error {
	switch {
	case it.Star && it.Table == "":
		for _, e := range frame.entries {
			for ci := range e.table.Columns {
				q.Head = append(q.Head, br.atoms[e.atom].Args[ci])
				q.HeadNames = append(q.HeadNames, e.table.Columns[ci].Name)
			}
		}
		return nil
	case it.Star:
		tl := strings.ToLower(it.Table)
		for _, e := range frame.entries {
			if e.name != tl {
				continue
			}
			for ci := range e.table.Columns {
				q.Head = append(q.Head, br.atoms[e.atom].Args[ci])
				q.HeadNames = append(q.HeadNames, e.table.Columns[ci].Name)
			}
			return nil
		}
		return fmt.Errorf("cq: unknown table %q in select list", it.Table)
	default:
		term, err := t.termOf(it.Expr, frame)
		if err != nil {
			return err
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				name = cr.Column
			} else {
				name = it.Expr.SQL()
			}
		}
		q.Head = append(q.Head, term)
		q.HeadNames = append(q.HeadNames, name)
		return nil
	}
}

// normalizeEq eliminates Eq comparisons that involve a variable by
// substituting the variable with the other side (constants and
// parameters preferred as representatives), in place. Two classes that
// each already have a non-variable representative are NOT merged: the
// equality between the representatives stays as a comparison, so
// `Kind = 1 AND Kind = 2` keeps its contradiction (Consistent sees
// 1 = 2) instead of silently deciding as `Kind = 1`.
func normalizeEq(q *Query) {
	// Union-find over terms connected by Eq comparisons.
	parent := make(map[string]string)
	terms := make(map[string]Term)
	intern := func(t Term) string {
		k := t.Key()
		if _, ok := parent[k]; !ok {
			parent[k] = k
			terms[k] = t
		}
		return k
	}
	var find func(string) string
	find = func(k string) string {
		if parent[k] != k {
			parent[k] = find(parent[k])
		}
		return parent[k]
	}
	var keep []Comparison
	for _, c := range q.Comps {
		if c.Op == Eq && (c.Left.IsVar() || c.Right.IsVar()) {
			a, b := find(intern(c.Left)), find(intern(c.Right))
			if a == b {
				continue
			}
			if !terms[a].IsVar() && !terms[b].IsVar() {
				keep = append(keep, Comparison{Op: Eq, Left: terms[a], Right: terms[b]}.normalize())
				continue
			}
			// A constant or parameter becomes the representative.
			if !terms[b].IsVar() {
				a, b = b, a
			}
			parent[b] = a
			continue
		}
		keep = append(keep, c.normalize())
	}
	subst := func(t Term) Term {
		if t.IsConst() {
			return t
		}
		k := t.Key()
		if _, ok := parent[k]; !ok {
			return t
		}
		return terms[find(k)]
	}
	for i, t := range q.Head {
		q.Head[i] = subst(t)
	}
	for ai := range q.Atoms {
		for i, t := range q.Atoms[ai].Args {
			q.Atoms[ai].Args[i] = subst(t)
		}
	}
	var comps []Comparison
	seen := make(map[string]bool)
	for _, c := range keep {
		nc := Comparison{Op: c.Op, Left: subst(c.Left), Right: subst(c.Right)}.normalize()
		// Drop trivially-true ground comparisons.
		if nc.Left.IsConst() && nc.Right.IsConst() {
			if groundHolds(nc) {
				continue
			}
		}
		if nc.Op == Eq && nc.Left.Equal(nc.Right) {
			continue
		}
		k := nc.Left.Key() + "|" + nc.Op.String() + "|" + nc.Right.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		comps = append(comps, nc)
	}
	q.Comps = comps
}

// groundHolds evaluates a comparison between two constants.
func groundHolds(c Comparison) bool {
	cmp, ok := sqlvalueCompare(c.Left, c.Right)
	if !ok {
		return c.Op == Ne // incomparable classes are unequal
	}
	switch c.Op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	}
	return false
}

func sqlvalueCompare(a, b Term) (int, bool) {
	if !a.IsConst() || !b.IsConst() {
		return 0, false
	}
	return sqlvalue.Compare(a.Const, b.Const)
}
