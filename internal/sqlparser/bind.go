package sqlparser

import (
	"fmt"
	"maps"

	"repro/internal/sqlvalue"
)

// Args carries the values for a statement's parameters: positional
// values in order, plus named values (without the leading '?').
type Args struct {
	Positional []sqlvalue.Value
	Named      map[string]sqlvalue.Value
}

// NoArgs is an empty argument set.
var NoArgs = Args{}

// PositionalArgs builds Args from Go values.
func PositionalArgs(vals ...any) Args {
	out := Args{Positional: make([]sqlvalue.Value, len(vals))}
	for i, v := range vals {
		out.Positional[i] = sqlvalue.MustFromAny(v)
	}
	return out
}

// NamedArgs builds named Args from a map of Go values.
func NamedArgs(m map[string]any) Args {
	out := Args{Named: make(map[string]sqlvalue.Value, len(m))}
	for k, v := range m {
		out.Named[k] = sqlvalue.MustFromAny(v)
	}
	return out
}

// With returns a copy of a with one more named value set.
func (a Args) With(name string, v any) Args {
	named := make(map[string]sqlvalue.Value, len(a.Named)+1)
	for k, val := range a.Named {
		named[k] = val
	}
	named[name] = sqlvalue.MustFromAny(v)
	return Args{Positional: a.Positional, Named: named}
}

// Resolve returns args with every value n asks for: a named one args
// lacks comes from defaults, else it is a *NoValueError. Args that have
// every value come back as they are, at no allocation.
func (n Needs) Resolve(args Args, defaults map[string]sqlvalue.Value) (Args, error) {
	if len(args.Positional) < n.Positional {
		return args, &NoValueError{Index: len(args.Positional)}
	}
	var named map[string]sqlvalue.Value
	for _, name := range n.Named {
		if _, ok := args.Named[name]; ok {
			continue
		}
		v, ok := defaults[name]
		if !ok {
			return args, &NoValueError{Name: name, Index: -1}
		}
		if named == nil {
			named = make(map[string]sqlvalue.Value, len(args.Named)+len(n.Named))
			maps.Copy(named, args.Named)
		}
		named[name] = v
	}
	if named != nil {
		args.Named = named
	}
	return args, nil
}

// Bind returns a copy of the statement with every parameter replaced
// by its literal value from args. It fails if a parameter has no value.
func Bind(s Statement, args Args) (Statement, error) {
	var err error
	out := mapStatement(s, func(e Expr) Expr {
		p, ok := e.(*Param)
		if !ok || err != nil {
			return e
		}
		var v sqlvalue.Value
		if p.Name != "" {
			val, found := args.Named[p.Name]
			if !found {
				err = (*NoValueError)(p)
				return e
			}
			v = val
		} else {
			if p.Index < 0 || p.Index >= len(args.Positional) {
				err = (*NoValueError)(p)
				return e
			}
			v = args.Positional[p.Index]
		}
		return &Literal{Value: v}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NoValueError is Bind's error for a parameter the arguments have no
// value for. It points at the parameter, so making one allocates
// nothing; the message is rendered only when asked for.
type NoValueError Param

func (p *NoValueError) Error() string {
	if p.Name != "" {
		return "sql: no value for named parameter ?" + p.Name
	}
	return fmt.Sprintf("sql: no value for positional parameter #%d", p.Index+1)
}

// CloneSelect deep-copies a SELECT statement.
func CloneSelect(s *SelectStmt) *SelectStmt {
	return mapStatement(s, func(e Expr) Expr { return e }).(*SelectStmt)
}

// MapExprs rewrites every expression leaf-to-root in the statement
// using f; f receives each node after its children were rebuilt and
// may return a replacement. The input is not modified.
func MapExprs(s Statement, f func(Expr) Expr) Statement {
	return mapStatement(s, f)
}

func mapStatement(s Statement, f func(Expr) Expr) Statement {
	switch st := s.(type) {
	case *SelectStmt:
		return mapSelect(st, f)
	case *InsertStmt:
		out := &InsertStmt{Table: st.Table, Columns: append([]string(nil), st.Columns...)}
		for _, row := range st.Rows {
			nr := make([]Expr, len(row))
			for i, e := range row {
				nr[i] = mapExpr(e, f)
			}
			out.Rows = append(out.Rows, nr)
		}
		return out
	case *UpdateStmt:
		out := &UpdateStmt{Table: st.Table}
		for _, a := range st.Set {
			out.Set = append(out.Set, Assignment{Column: a.Column, Value: mapExpr(a.Value, f)})
		}
		if st.Where != nil {
			out.Where = mapExpr(st.Where, f)
		}
		return out
	case *DeleteStmt:
		out := &DeleteStmt{Table: st.Table}
		if st.Where != nil {
			out.Where = mapExpr(st.Where, f)
		}
		return out
	case *CreateTableStmt:
		cp := *st
		return &cp
	}
	return s
}

func mapSelect(st *SelectStmt, f func(Expr) Expr) *SelectStmt {
	out := &SelectStmt{Distinct: st.Distinct}
	for _, it := range st.Items {
		ni := SelectItem{Star: it.Star, Table: it.Table, Alias: it.Alias}
		if it.Expr != nil {
			ni.Expr = mapExpr(it.Expr, f)
		}
		out.Items = append(out.Items, ni)
	}
	for _, te := range st.From {
		out.From = append(out.From, mapTableExpr(te, f))
	}
	if st.Where != nil {
		out.Where = mapExpr(st.Where, f)
	}
	for _, g := range st.GroupBy {
		out.GroupBy = append(out.GroupBy, mapExpr(g, f))
	}
	if st.Having != nil {
		out.Having = mapExpr(st.Having, f)
	}
	for _, o := range st.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: mapExpr(o.Expr, f), Desc: o.Desc})
	}
	if st.Limit != nil {
		out.Limit = mapExpr(st.Limit, f)
	}
	if st.Offset != nil {
		out.Offset = mapExpr(st.Offset, f)
	}
	for _, u := range st.Union {
		out.Union = append(out.Union, UnionPart{All: u.All, Select: mapSelect(u.Select, f)})
	}
	return out
}

func mapTableExpr(te TableExpr, f func(Expr) Expr) TableExpr {
	switch t := te.(type) {
	case *TableRef:
		cp := *t
		return &cp
	case *JoinExpr:
		out := &JoinExpr{Type: t.Type, Left: mapTableExpr(t.Left, f), Right: mapTableExpr(t.Right, f)}
		if t.On != nil {
			out.On = mapExpr(t.On, f)
		}
		return out
	}
	return te
}

func mapExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal:
		cp := *x
		return f(&cp)
	case *Param:
		cp := *x
		return f(&cp)
	case *ColumnRef:
		cp := *x
		return f(&cp)
	case *BinaryExpr:
		return f(&BinaryExpr{Op: x.Op, Left: mapExpr(x.Left, f), Right: mapExpr(x.Right, f)})
	case *UnaryExpr:
		return f(&UnaryExpr{Op: x.Op, Expr: mapExpr(x.Expr, f)})
	case *IsNullExpr:
		return f(&IsNullExpr{Expr: mapExpr(x.Expr, f), Not: x.Not})
	case *InExpr:
		out := &InExpr{Expr: mapExpr(x.Expr, f), Not: x.Not}
		for _, it := range x.List {
			out.List = append(out.List, mapExpr(it, f))
		}
		if x.Subquery != nil {
			out.Subquery = mapSelect(x.Subquery, f)
		}
		return f(out)
	case *ExistsExpr:
		return f(&ExistsExpr{Not: x.Not, Subquery: mapSelect(x.Subquery, f)})
	case *BetweenExpr:
		return f(&BetweenExpr{Expr: mapExpr(x.Expr, f), Not: x.Not, Lo: mapExpr(x.Lo, f), Hi: mapExpr(x.Hi, f)})
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, mapExpr(a, f))
		}
		return f(out)
	case *SubqueryExpr:
		return f(&SubqueryExpr{Subquery: mapSelect(x.Subquery, f)})
	}
	return f(e)
}
