package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlvalue"
)

// SQL renders the statement deterministically. Parsing the rendering
// yields a structurally identical AST (round-trip property, tested).
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.SQL())
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, te := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(te.SQL())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(s.Limit.SQL())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET ")
		b.WriteString(s.Offset.SQL())
	}
	for _, u := range s.Union {
		if u.All {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		b.WriteString(u.Select.SQL())
	}
	return b.String()
}

// SQL renders the select item.
func (it SelectItem) SQL() string {
	if it.Star {
		if it.Table != "" {
			return it.Table + ".*"
		}
		return "*"
	}
	s := it.Expr.SQL()
	if it.Alias != "" {
		s += " AS " + it.Alias
	}
	return s
}

// SQL renders the table reference.
func (t *TableRef) SQL() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// SQL renders the join.
func (j *JoinExpr) SQL() string {
	kw := " JOIN "
	if j.Type == LeftJoin {
		kw = " LEFT JOIN "
	}
	s := j.Left.SQL() + kw + j.Right.SQL()
	if j.On != nil {
		s += " ON " + j.On.SQL()
	}
	return s
}

// SQL renders the INSERT statement.
func (s *InsertStmt) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s", s.Table)
	if len(s.Columns) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(s.Columns, ", "))
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
		b.WriteString(")")
	}
	return b.String()
}

// SQL renders the UPDATE statement.
func (s *UpdateStmt) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", s.Table)
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", a.Column, a.Value.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.SQL())
	}
	return b.String()
}

// SQL renders the DELETE statement.
func (s *DeleteStmt) SQL() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.SQL()
	}
	return out
}

// SQL renders the CREATE TABLE statement.
func (s *CreateTableStmt) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	if len(s.PrimaryKey) > 0 {
		fmt.Fprintf(&b, ", PRIMARY KEY (%s)", strings.Join(s.PrimaryKey, ", "))
	}
	for _, uk := range s.UniqueKeys {
		fmt.Fprintf(&b, ", UNIQUE (%s)", strings.Join(uk, ", "))
	}
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, ", FOREIGN KEY (%s) REFERENCES %s (%s)",
			strings.Join(fk.Columns, ", "), fk.RefTable, strings.Join(fk.RefColumns, ", "))
	}
	b.WriteString(")")
	return b.String()
}

// --- Expression rendering ---

// opText maps binary operators to their SQL spelling.
var opText = map[BinaryOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLike: "LIKE",
}

// OpString returns the SQL spelling of a binary operator.
func OpString(op BinaryOp) string { return opText[op] }

// precedence for parenthesization on output.
func opPrec(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return 3
	case OpAdd, OpSub:
		return 4
	default:
		return 5
	}
}

func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		return opPrec(x.Op)
	case *UnaryExpr:
		if x.Op == '!' {
			return 2 // NOT binds like AND operand
		}
		return 6
	case *BetweenExpr, *InExpr, *IsNullExpr:
		return 3
	default:
		return 7
	}
}

func renderChild(e Expr, parentPrec int) string {
	s := e.SQL()
	if exprPrec(e) < parentPrec {
		return "(" + s + ")"
	}
	return s
}

// SQL renders the literal.
func (l *Literal) SQL() string {
	if l.Value.Type() == sqlvalue.Real && l.Value.String() == "-0" {
		return "-0.0" // "-0" would read back as the INTEGER 0
	}
	return l.Value.String()
}

// SQL renders the parameter. Explicit $N placeholders keep their
// index so printing preserves repetition and out-of-order use.
func (p *Param) SQL() string {
	if p.Name == "" && p.Explicit {
		return "$" + strconv.Itoa(p.Index+1)
	}
	return "?" + p.Name
}

// SQL renders the column reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// SQL renders the binary expression with minimal parentheses.
func (b *BinaryExpr) SQL() string {
	prec := opPrec(b.Op)
	left := renderChild(b.Left, prec)
	// Right child needs parens at equal precedence for non-associative
	// rendering stability (a-(b-c)).
	right := b.Right.SQL()
	if exprPrec(b.Right) <= prec && !isAssociative(b.Op) {
		right = "(" + right + ")"
	} else {
		right = renderChild(b.Right, prec)
	}
	return left + " " + opText[b.Op] + " " + right
}

func isAssociative(op BinaryOp) bool {
	switch op {
	case OpAnd, OpOr, OpAdd, OpMul:
		return true
	}
	return false
}

// SQL renders NOT / negation.
func (u *UnaryExpr) SQL() string {
	if u.Op == '!' {
		return "NOT " + renderChild(u.Expr, 3)
	}
	return "-" + renderChild(u.Expr, 6)
}

// SQL renders IS [NOT] NULL.
func (i *IsNullExpr) SQL() string {
	s := renderChild(i.Expr, 4) + " IS "
	if i.Not {
		s += "NOT "
	}
	return s + "NULL"
}

// SQL renders [NOT] IN.
func (i *InExpr) SQL() string {
	s := renderChild(i.Expr, 4)
	if i.Not {
		s += " NOT"
	}
	s += " IN ("
	if i.Subquery != nil {
		s += i.Subquery.SQL()
	} else {
		parts := make([]string, len(i.List))
		for k, e := range i.List {
			parts[k] = e.SQL()
		}
		s += strings.Join(parts, ", ")
	}
	return s + ")"
}

// SQL renders [NOT] EXISTS.
func (e *ExistsExpr) SQL() string {
	s := "EXISTS (" + e.Subquery.SQL() + ")"
	if e.Not {
		return "NOT " + s
	}
	return s
}

// SQL renders [NOT] BETWEEN.
func (b *BetweenExpr) SQL() string {
	s := renderChild(b.Expr, 4)
	if b.Not {
		s += " NOT"
	}
	return s + " BETWEEN " + renderChild(b.Lo, 4) + " AND " + renderChild(b.Hi, 4)
}

// SQL renders a function call.
func (f *FuncExpr) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

// SQL renders a scalar subquery.
func (s *SubqueryExpr) SQL() string { return "(" + s.Subquery.SQL() + ")" }
