// Package sqlparser implements a hand-written lexer and
// recursive-descent parser for the SQL subset used throughout the
// system: SELECT with joins, subqueries, grouping and ordering;
// INSERT, UPDATE, DELETE; and CREATE TABLE. Queries may contain
// positional parameters (?) and named parameters (?MyUId), the form
// Blockaid-style policies use to refer to the current principal.
package sqlparser

import (
	"slices"

	"repro/internal/sqlvalue"
)

// Node is any AST node; SQL returns its deterministic rendering.
type Node interface {
	SQL() string
}

// Statement is a top-level SQL statement.
type Statement interface {
	Node
	stmt()
}

// Expr is a scalar or boolean expression.
type Expr interface {
	Node
	expr()
}

// --- Statements ---

// SelectStmt is a SELECT query, possibly a UNION chain: Union holds
// the subsequent arms; OrderBy/Limit/Offset of the first arm apply to
// the combined result.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr // cross product of join trees
	Where    Expr        // may be nil
	GroupBy  []Expr
	Having   Expr // may be nil
	OrderBy  []OrderItem
	Limit    Expr // may be nil
	Offset   Expr // may be nil
	Union    []UnionPart
}

// UnionPart is one additional arm of a UNION chain.
type UnionPart struct {
	All    bool // UNION ALL keeps duplicates
	Select *SelectStmt
}

func (*SelectStmt) stmt() {}

// SelectItem is one element of the select list.
type SelectItem struct {
	// Star is true for "*" (Table empty) or "t.*" (Table set).
	Star  bool
	Table string
	Expr  Expr   // nil when Star
	Alias string // optional AS alias
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableExpr is a FROM-clause item: a base table or a join.
type TableExpr interface {
	Node
	tableExpr()
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (*TableRef) tableExpr() {}

// JoinType distinguishes join flavours.
type JoinType uint8

// Supported join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// JoinExpr is a binary join with an ON condition.
type JoinExpr struct {
	Type  JoinType
	Left  TableExpr
	Right TableExpr
	On    Expr // may be nil for CROSS-like joins
}

func (*JoinExpr) tableExpr() {}

// InsertStmt is INSERT INTO t (cols) VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty means all columns in declared order
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// UpdateStmt is UPDATE t SET c = e, ... WHERE ...
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr // may be nil
}

func (*UpdateStmt) stmt() {}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t WHERE ...
type DeleteStmt struct {
	Table string
	Where Expr // may be nil
}

func (*DeleteStmt) stmt() {}

// CreateTableStmt is CREATE TABLE with column and key definitions.
type CreateTableStmt struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	UniqueKeys  [][]string
	ForeignKeys []ForeignKeyDef
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column definition inside CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    sqlvalue.Type
	NotNull bool
	PK      bool // inline PRIMARY KEY
	Unique  bool // inline UNIQUE
}

// ForeignKeyDef is a table-level FOREIGN KEY clause.
type ForeignKeyDef struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// --- Expressions ---

// Literal is a constant value.
type Literal struct {
	Value sqlvalue.Value
}

func (*Literal) expr() {}

// Param is a positional (?), explicit-index ($N), or named (?Name or
// :Name) parameter.
type Param struct {
	Name  string // empty for positional
	Index int    // 0-based position among positional params; -1 for named
	// Explicit marks a Postgres-style $N placeholder, whose index came
	// from the SQL text rather than left-to-right assignment. Explicit
	// indices may repeat and appear out of order.
	Explicit bool
}

func (*Param) expr() {}

// ColumnRef references a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table  string // may be empty
	Column string
}

func (*ColumnRef) expr() {}

// BinaryOp is the operator of a BinaryExpr.
type BinaryOp uint8

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

// BinaryExpr applies Op to Left and Right.
type BinaryExpr struct {
	Op    BinaryOp
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op   byte // '!' for NOT, '-' for negation
	Expr Expr
}

func (*UnaryExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr() {}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	Expr     Expr
	Not      bool
	List     []Expr      // non-nil for value list
	Subquery *SelectStmt // non-nil for subquery form
}

func (*InExpr) expr() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not      bool
	Subquery *SelectStmt
}

func (*ExistsExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr Expr
	Not  bool
	Lo   Expr
	Hi   Expr
}

func (*BetweenExpr) expr() {}

// FuncExpr is an aggregate or scalar function call. Star is true for
// COUNT(*).
type FuncExpr struct {
	Name     string // upper-cased
	Star     bool
	Distinct bool
	Args     []Expr
}

func (*FuncExpr) expr() {}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct {
	Subquery *SelectStmt
}

func (*SubqueryExpr) expr() {}

// AggregateFuncs lists the supported aggregates.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the expression tree contains an
// aggregate function call at its top level scope (not inside a
// subquery).
func IsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch f := x.(type) {
		case *FuncExpr:
			if AggregateFuncs[f.Name] {
				found = true
				return false
			}
		case *SubqueryExpr, *ExistsExpr:
			return false // don't descend into subqueries
		}
		return true
	})
	return found
}

// WalkExpr visits e and its children in preorder. The visitor returns
// false to skip a subtree.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, visit)
		WalkExpr(x.Right, visit)
	case *UnaryExpr:
		WalkExpr(x.Expr, visit)
	case *IsNullExpr:
		WalkExpr(x.Expr, visit)
	case *InExpr:
		WalkExpr(x.Expr, visit)
		for _, it := range x.List {
			WalkExpr(it, visit)
		}
	case *BetweenExpr:
		WalkExpr(x.Expr, visit)
		WalkExpr(x.Lo, visit)
		WalkExpr(x.Hi, visit)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	}
}

// Params returns the parameters appearing in the statement in
// source order (including inside subqueries).
func Params(s Statement) []*Param {
	var out []*Param
	collectExpr := func(e Expr) {
		WalkExpr(e, func(x Expr) bool {
			switch p := x.(type) {
			case *Param:
				out = append(out, p)
			case *SubqueryExpr:
				for _, q := range Params(p.Subquery) {
					out = append(out, q)
				}
				return false
			case *ExistsExpr:
				for _, q := range Params(p.Subquery) {
					out = append(out, q)
				}
				return false
			case *InExpr:
				if p.Subquery != nil {
					WalkExpr(p.Expr, func(y Expr) bool {
						if q, ok := y.(*Param); ok {
							out = append(out, q)
						}
						return true
					})
					for _, q := range Params(p.Subquery) {
						out = append(out, q)
					}
					return false
				}
			}
			return true
		})
	}
	switch st := s.(type) {
	case *SelectStmt:
		for _, it := range st.Items {
			collectExpr(it.Expr)
		}
		for _, te := range st.From {
			walkTableExpr(te, collectExpr)
		}
		collectExpr(st.Where)
		for _, g := range st.GroupBy {
			collectExpr(g)
		}
		collectExpr(st.Having)
		for _, o := range st.OrderBy {
			collectExpr(o.Expr)
		}
		collectExpr(st.Limit)
		collectExpr(st.Offset)
		for _, u := range st.Union {
			out = append(out, Params(u.Select)...)
		}
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				collectExpr(e)
			}
		}
	case *UpdateStmt:
		for _, a := range st.Set {
			collectExpr(a.Value)
		}
		collectExpr(st.Where)
	case *DeleteStmt:
		collectExpr(st.Where)
	}
	return out
}

// NumPositionalParams reports how many positional values a statement
// needs: the count of sequential `?` parameters or, with explicit $N
// placeholders, the highest index used.
func NumPositionalParams(s Statement) int { return NeedsOf(s).Positional }

// Needs is what a statement's parameters ask of a call's arguments:
// Positional values (NumPositionalParams), and the Named ones, each
// once, in source order.
type Needs struct {
	Positional int
	Named      []string
}

// NeedsOf walks s for its Needs. ParseNeeds caches the result with the
// parse, so a repeat of a text pays no walk.
func NeedsOf(s Statement) Needs {
	var n Needs
	for _, p := range Params(s) {
		if p.Name == "" {
			n.Positional = max(n.Positional, p.Index+1)
		} else if !slices.Contains(n.Named, p.Name) {
			n.Named = append(n.Named, p.Name)
		}
	}
	return n
}

func walkTableExpr(te TableExpr, collectExpr func(Expr)) {
	switch t := te.(type) {
	case *JoinExpr:
		walkTableExpr(t.Left, collectExpr)
		walkTableExpr(t.Right, collectExpr)
		collectExpr(t.On)
	}
}

// BaseTables returns the base table references appearing in the FROM
// clause (not in subqueries), left to right.
func BaseTables(from []TableExpr) []*TableRef {
	var out []*TableRef
	var rec func(te TableExpr)
	rec = func(te TableExpr) {
		switch t := te.(type) {
		case *TableRef:
			out = append(out, t)
		case *JoinExpr:
			rec(t.Left)
			rec(t.Right)
		}
	}
	for _, te := range from {
		rec(te)
	}
	return out
}
