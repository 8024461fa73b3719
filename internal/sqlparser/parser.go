package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlvalue"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, nextPos: -1}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errHere("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	return asSelect(Parse(src))
}

// asSelect requires a parsed statement to be a SELECT.
func asSelect(s Statement, err error) (*SelectStmt, error) {
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT, got %T", s)
	}
	return sel, nil
}

// MustParse is Parse, panicking on error. For fixtures and tests.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// MustParseSelect is ParseSelect, panicking on error.
func MustParseSelect(src string) *SelectStmt {
	s, err := ParseSelect(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	src     string
	toks    []token
	i       int
	nextPos int // running index assigned to positional params
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errHere(format string, args ...any) error {
	return fmt.Errorf("sql:%d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errHere("expected %s, got %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != sym {
		return p.errHere("expected %q, got %q", sym, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) atSymbol(sym string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) eatSymbol(sym string) bool {
	if p.atSymbol(sym) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if !identLike(t) {
		return "", p.errHere("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "SELECT":
		return p.parseSelect()
	case t.kind == tokKeyword && t.text == "INSERT":
		return p.parseInsert()
	case t.kind == tokKeyword && t.text == "UPDATE":
		return p.parseUpdate()
	case t.kind == tokKeyword && t.text == "DELETE":
		return p.parseDelete()
	case t.kind == tokKeyword && t.text == "CREATE":
		return p.parseCreateTable()
	case t.kind == tokSymbol && t.text == "(":
		// Parenthesized SELECT at top level.
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return sel, nil
	}
	return nil, p.errHere("expected a statement, got %q", p.peek().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	sel.Distinct = p.eatKeyword("DISTINCT")
	if p.eatKeyword("ALL") {
		sel.Distinct = false
	}

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.eatSymbol(",") {
			break
		}
	}

	if p.eatKeyword("FROM") {
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, te)
			if !p.eatSymbol(",") {
				break
			}
		}
	}

	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.atKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	if p.eatKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.atKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.eatKeyword("DESC") {
				item.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	if p.eatKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.eatKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	for p.atKeyword("UNION") {
		p.advance()
		all := p.eatKeyword("ALL")
		arm, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		// ORDER BY / LIMIT / OFFSET written after the last arm apply
		// to the whole union: hoist them onto the head select.
		if len(arm.OrderBy) > 0 && len(sel.OrderBy) == 0 {
			sel.OrderBy, arm.OrderBy = arm.OrderBy, nil
		}
		if arm.Limit != nil && sel.Limit == nil {
			sel.Limit, arm.Limit = arm.Limit, nil
		}
		if arm.Offset != nil && sel.Offset == nil {
			sel.Offset, arm.Offset = arm.Offset, nil
		}
		sel.Union = append(sel.Union, UnionPart{All: all, Select: arm})
		// A nested chain parsed into the arm flattens onto the head.
		if len(arm.Union) > 0 {
			sel.Union = append(sel.Union, arm.Union...)
			arm.Union = nil
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" | ident "." "*" | expr [AS alias]
	if p.atSymbol("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if identLike(p.peek()) && p.peek2().kind == tokSymbol && p.peek2().text == "." {
		// Lookahead for t.*
		if p.i+2 < len(p.toks) {
			t3 := p.toks[p.i+2]
			if t3.kind == tokSymbol && t3.text == "*" {
				tab := p.advance().text
				p.advance() // .
				p.advance() // *
				return SelectItem{Star: true, Table: tab}, nil
			}
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.eatKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if identLike(p.peek()) {
		// Bare alias.
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.atKeyword("JOIN"):
			p.advance()
			jt = InnerJoin
		case p.atKeyword("INNER"):
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.atKeyword("LEFT"):
			p.advance()
			p.eatKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		case p.atKeyword("CROSS"):
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Type: InnerJoin, Left: left, Right: right}
			continue
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Type: jt, Left: left, Right: right}
		if p.eatKeyword("ON") {
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

func (p *parser) parseTablePrimary() (TableExpr, error) {
	if p.eatSymbol("(") {
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name}
	if p.eatKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if identLike(p.peek()) {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := additive [compOp additive | IS [NOT] NULL |
//	             [NOT] IN (...) | [NOT] LIKE additive |
//	             [NOT] BETWEEN additive AND additive]
//	additive := multiplicative (('+'|'-') multiplicative)*
//	multiplicative := primary (('*'|'/'|'%') primary)*
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.eatKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: '!', Expr: e}, nil
	}
	return p.parsePredicate()
}

var compOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	// EXISTS (subquery)
	if p.atKeyword("EXISTS") {
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Subquery: sub}, nil
	}

	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}

	// Comparison operators.
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := compOps[t.text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}

	// IS [NOT] NULL
	if p.atKeyword("IS") {
		p.advance()
		not := p.eatKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Not: not}, nil
	}

	not := false
	if p.atKeyword("NOT") {
		// Only if followed by IN/LIKE/BETWEEN.
		n := p.peek2()
		if n.kind == tokKeyword && (n.text == "IN" || n.text == "LIKE" || n.text == "BETWEEN") {
			p.advance()
			not = true
		}
	}

	switch {
	case p.atKeyword("IN"):
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, Not: not}
		if p.atKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.eatSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil

	case p.atKeyword("LIKE"):
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: OpLike, Left: left, Right: right}
		if not {
			e = &UnaryExpr{Op: '!', Expr: e}
		}
		return e, nil

	case p.atKeyword("BETWEEN"):
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Not: not, Lo: lo, Hi: hi}, nil
	}

	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.advance()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		var op BinaryOp
		switch t.text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		default:
			op = OpMod
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

// parsePrimary parses a primary expression and any trailing
// Postgres-style `::type` cast suffixes. The engine is dynamically
// typed and the checker reasons over untyped conjunctive queries, so a
// cast is accepted and discarded: `col::int8 = $1` decides and
// evaluates exactly like `col = $1`. The type name is a single
// identifier with an optional parenthesized precision list
// (`::varchar(10)`, `::numeric(8,2)`).
func (p *parser) parsePrimary() (Expr, error) {
	e, err := p.parsePrimaryBase()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("::") {
		p.advance()
		if _, err := p.expectIdent(); err != nil {
			return nil, err
		}
		if p.eatSymbol("(") {
			for {
				if t := p.peek(); t.kind != tokInt {
					return nil, p.errHere("expected integer in type precision, got %q", t.text)
				}
				p.advance()
				if !p.eatSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

func (p *parser) parsePrimaryBase() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad integer %q", t.text)
		}
		return &Literal{Value: sqlvalue.NewInt(n)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errHere("bad float %q", t.text)
		}
		return &Literal{Value: sqlvalue.NewReal(f)}, nil
	case tokString:
		p.advance()
		return &Literal{Value: sqlvalue.NewText(t.text)}, nil
	case tokParam:
		p.advance()
		if t.text == "" {
			p.nextPos++
			return &Param{Index: p.nextPos}, nil
		}
		if t.text[0] == '$' {
			// Postgres-style $N placeholder: an explicit 1-based
			// positional index ($1 may repeat and indices may appear
			// out of order).
			n, err := strconv.Atoi(t.text[1:])
			if err != nil || n < 1 {
				return nil, p.errHere("bad placeholder %q", t.text)
			}
			return &Param{Index: n - 1, Explicit: true}, nil
		}
		return &Param{Name: t.text, Index: -1}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Value: sqlvalue.NewNull()}, nil
		case "TRUE":
			p.advance()
			return &Literal{Value: sqlvalue.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Value: sqlvalue.NewBool(false)}, nil
		case "NOT":
			p.advance()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: '!', Expr: e}, nil
		}
	case tokSymbol:
		switch t.text {
		case "(":
			p.advance()
			if p.atKeyword("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Subquery: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "-":
			p.advance()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			if lit, ok := e.(*Literal); ok {
				switch lit.Value.Type() {
				case sqlvalue.Int:
					return &Literal{Value: sqlvalue.NewInt(-lit.Value.Int())}, nil
				case sqlvalue.Real:
					return &Literal{Value: sqlvalue.NewReal(-lit.Value.Real())}, nil
				}
			}
			return &UnaryExpr{Op: '-', Expr: e}, nil
		case "*":
			// COUNT(*) handled in function parsing; bare * invalid here.
		}
	}
	if identLike(t) {
		return p.parseIdentExpr()
	}
	return nil, p.errHere("unexpected token %q in expression", t.text)
}

func (p *parser) parseIdentExpr() (Expr, error) {
	name := p.advance().text

	// Function call?
	if p.atSymbol("(") {
		p.advance()
		fn := &FuncExpr{Name: strings.ToUpper(name)}
		if p.eatSymbol("*") {
			fn.Star = true
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fn, nil
		}
		fn.Distinct = p.eatKeyword("DISTINCT")
		if !p.atSymbol(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fn.Args = append(fn.Args, a)
				if !p.eatSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fn, nil
	}

	// Qualified column?
	if p.atSymbol(".") {
		p.advance()
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col}, nil
	}
	return &ColumnRef{Column: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.eatSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.eatSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.eatSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.eatSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if !p.eatSymbol(",") {
			break
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{Name: name}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atKeyword("PRIMARY"):
			p.advance()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		case p.atKeyword("UNIQUE"):
			p.advance()
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.UniqueKeys = append(ct.UniqueKeys, cols)
		case p.atKeyword("FOREIGN"):
			p.advance()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{Columns: cols, RefTable: ref, RefColumns: refCols})
		default:
			colName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typeName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typ, err := sqlvalue.ParseType(typeName)
			if err != nil {
				return nil, p.errHere("%v", err)
			}
			cd := ColumnDef{Name: colName, Type: typ}
			for {
				switch {
				case p.atKeyword("NOT"):
					p.advance()
					if err := p.expectKeyword("NULL"); err != nil {
						return nil, err
					}
					cd.NotNull = true
				case p.atKeyword("PRIMARY"):
					p.advance()
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					cd.PK = true
					cd.NotNull = true
				case p.atKeyword("UNIQUE"):
					p.advance()
					cd.Unique = true
				default:
					goto colDone
				}
			}
		colDone:
			ct.Columns = append(ct.Columns, cd)
		}
		if !p.eatSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	// Fold inline PK/UNIQUE markers into table-level keys.
	for _, c := range ct.Columns {
		if c.PK && len(ct.PrimaryKey) == 0 {
			ct.PrimaryKey = []string{c.Name}
		}
		if c.Unique {
			ct.UniqueKeys = append(ct.UniqueKeys, []string{c.Name})
		}
	}
	return ct, nil
}

func (p *parser) parseParenIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.eatSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return out, nil
}
