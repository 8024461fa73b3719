package cq

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// ToSQL renders the conjunctive query back into SQL:
//
//	SELECT <head> FROM t0 x0, t1 x1, ... WHERE <joins and comparisons>
//
// Each atom gets a fresh alias; repeated variables become equality
// predicates on the first occurrence's column; parameters render as
// named SQL parameters. The output parses back into an equivalent CQ
// (tested), which is how extracted policies and generated patches are
// materialized as view definitions.
func ToSQL(s *schema.Schema, q *Query) (string, error) {
	type site struct {
		alias  string
		column string
	}
	binding := make(map[string]site) // var name -> first occurrence
	var conds []string

	aliases := make([]string, len(q.Atoms))
	var from []string
	for ai, a := range q.Atoms {
		tab, ok := s.Table(a.Table)
		if !ok {
			return "", fmt.Errorf("cq: unknown table %q", a.Table)
		}
		alias := fmt.Sprintf("t%d", ai)
		aliases[ai] = alias
		from = append(from, tab.Name+" "+alias)
		for ci, term := range a.Args {
			col := alias + "." + tab.Columns[ci].Name
			switch term.Kind {
			case KindVar:
				if first, seen := binding[term.Name]; seen {
					conds = append(conds, fmt.Sprintf("%s = %s.%s", col, first.alias, first.column))
				} else {
					binding[term.Name] = site{alias: alias, column: tab.Columns[ci].Name}
				}
			case KindConst:
				conds = append(conds, fmt.Sprintf("%s = %s", col, term.Const.String()))
			case KindParam:
				conds = append(conds, fmt.Sprintf("%s = ?%s", col, term.Name))
			}
		}
	}

	termSQL := func(t Term) (string, error) {
		switch t.Kind {
		case KindVar:
			b, ok := binding[t.Name]
			if !ok {
				return "", fmt.Errorf("cq: head/comparison variable %s not bound by any atom", t.Name)
			}
			return b.alias + "." + b.column, nil
		case KindConst:
			return t.Const.String(), nil
		default:
			return "?" + t.Name, nil
		}
	}

	for _, c := range q.Comps {
		l, err := termSQL(c.Left)
		if err != nil {
			return "", err
		}
		r, err := termSQL(c.Right)
		if err != nil {
			return "", err
		}
		conds = append(conds, fmt.Sprintf("%s %s %s", l, c.Op, r))
	}

	var items []string
	for i, h := range q.Head {
		expr, err := termSQL(h)
		if err != nil {
			return "", err
		}
		if i < len(q.HeadNames) && q.HeadNames[i] != "" && !strings.Contains(expr, "?") {
			// Alias when the head name differs from the bare column.
			parts := strings.SplitN(expr, ".", 2)
			if len(parts) != 2 || !strings.EqualFold(parts[1], q.HeadNames[i]) {
				expr += " AS " + sanitizeAlias(q.HeadNames[i])
			}
		}
		items = append(items, expr)
	}
	if len(items) == 0 {
		items = []string{"1"}
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(items, ", "))
	if len(from) > 0 {
		b.WriteString(" FROM ")
		b.WriteString(strings.Join(from, ", "))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return b.String(), nil
}

// sanitizeAlias makes a head name safe as a SQL alias.
func sanitizeAlias(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "c_" + out
	}
	return out
}
