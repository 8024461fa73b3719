package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/acerr"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Query runs a SELECT whose parameters are already bound.
func (db *DB) Query(sel *sqlparser.SelectStmt) (*Result, error) {
	return db.QueryCtx(context.Background(), sel)
}

// QueryCtx runs a SELECT whose parameters are already bound, aborting
// mid-scan when ctx is canceled or its deadline passes. The returned
// error then satisfies errors.Is(err, acerr.ErrCanceled).
func (db *DB) QueryCtx(ctx context.Context, sel *sqlparser.SelectStmt) (*Result, error) {
	obs := db.obs.Load()
	var start time.Time
	if obs != nil {
		obs.queries.Inc()
		start = time.Now()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ev := &evaluator{db: db, ctx: ctx}
	res, err := ev.execSelect(sel, nil)
	if obs != nil {
		obs.scan.ObserveSince(start)
	}
	return res, err
}

// QuerySQL parses, binds, and runs a SELECT.
func (db *DB) QuerySQL(sql string, args sqlparser.Args) (*Result, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		return nil, err
	}
	return db.Query(bound.(*sqlparser.SelectStmt))
}

// scope maps table names/aliases to column ranges of a combined row.
type scope struct {
	entries []scopeEntry
	width   int
}

type scopeEntry struct {
	name   string // lower-cased alias or table name
	table  *schema.Table
	offset int
}

func newScope(entries []scopeEntry) *scope {
	s := &scope{entries: entries}
	for _, e := range entries {
		if end := e.offset + len(e.table.Columns); end > s.width {
			s.width = end
		}
	}
	return s
}

func (s *scope) addTable(t *schema.Table, name string, offset int) {
	s.entries = append(s.entries, scopeEntry{name: name, table: t, offset: offset})
	if end := offset + len(t.Columns); end > s.width {
		s.width = end
	}
}

// resolve finds the combined-row position for a column reference.
func (s *scope) resolve(table, column string) (int, bool, error) {
	tl, cl := strings.ToLower(table), strings.ToLower(column)
	found, at := false, 0
	for _, e := range s.entries {
		if tl != "" && e.name != tl {
			continue
		}
		if p, ok := e.table.ColumnIndex(cl); ok {
			if found {
				return 0, false, fmt.Errorf("engine: ambiguous column reference %q", column)
			}
			found, at = true, e.offset+p
		}
	}
	return at, found, nil
}

// env chains a scope+row with the enclosing query's environment for
// correlated subqueries.
type env struct {
	scope  *scope
	row    Row
	parent *env
}

type evaluator struct {
	db  *DB
	ctx context.Context
	ops int
}

// tick is called once per row produced or filtered in the hot loops;
// every 1024 ticks it polls the context so a canceled query stops
// scanning within a bounded number of rows.
func (ev *evaluator) tick() error {
	ev.ops++
	if ev.ops&1023 != 0 || ev.ctx == nil {
		return nil
	}
	if err := ev.ctx.Err(); err != nil {
		return fmt.Errorf("engine: query %w", acerr.Canceled(err))
	}
	return nil
}

// execSelect runs a SELECT against the (already read-locked) storage,
// including any UNION arms: arms are evaluated with the same parent
// environment, concatenated (deduplicating unless UNION ALL), and the
// head select's ORDER BY / LIMIT / OFFSET apply to the combined rows.
func (ev *evaluator) execSelect(sel *sqlparser.SelectStmt, parent *env) (*Result, error) {
	if len(sel.Union) == 0 {
		return ev.execSingleSelect(sel, parent)
	}
	head := *sel
	head.Union = nil
	orderBy, limit, offset := head.OrderBy, head.Limit, head.Offset
	head.OrderBy, head.Limit, head.Offset = nil, nil, nil

	res, err := ev.execSingleSelect(&head, parent)
	if err != nil {
		return nil, err
	}
	allDup := false
	for _, u := range sel.Union {
		arm, err := ev.execSelect(u.Select, parent)
		if err != nil {
			return nil, err
		}
		if len(arm.Columns) != len(res.Columns) {
			return nil, fmt.Errorf("engine: UNION arms have %d and %d columns",
				len(res.Columns), len(arm.Columns))
		}
		res.Rows = append(res.Rows, arm.Rows...)
		if u.All {
			allDup = true
		}
	}
	if !allDup {
		seen := make(map[string]bool, len(res.Rows))
		var rows []Row
		for _, r := range res.Rows {
			k := r.key(rangeInts(len(r)))
			if seen[k] {
				continue
			}
			seen[k] = true
			rows = append(rows, r)
		}
		res.Rows = rows
	}
	// Apply the hoisted ORDER BY / LIMIT / OFFSET on the union result.
	if len(orderBy) > 0 {
		keys := make([][]sqlvalue.Value, len(res.Rows))
		for i, row := range res.Rows {
			keys[i] = make([]sqlvalue.Value, len(orderBy))
			for oi, o := range orderBy {
				v, err := ev.orderValue(o.Expr, res.Columns, row, func(sqlparser.Expr) (sqlvalue.Value, error) {
					return sqlvalue.Value{}, fmt.Errorf("engine: UNION ORDER BY must reference output columns or positions")
				})
				if err != nil {
					return nil, err
				}
				keys[i][oi] = v
			}
		}
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			for i, o := range orderBy {
				if sqlvalue.Identical(ka[i], kb[i]) {
					continue
				}
				less := sqlvalue.Less(ka[i], kb[i])
				if o.Desc {
					return !less
				}
				return less
			}
			return false
		})
		sorted := make([]Row, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if offset != nil {
		v, err := ev.eval(offset, &scope{}, nil)
		if err != nil {
			return nil, err
		}
		n := int(v.Int())
		if n > len(res.Rows) {
			n = len(res.Rows)
		}
		if n > 0 {
			res.Rows = res.Rows[n:]
		}
	}
	if limit != nil {
		v, err := ev.eval(limit, &scope{}, nil)
		if err != nil {
			return nil, err
		}
		if n := int(v.Int()); n >= 0 && n < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	return res, nil
}

// execSingleSelect runs one SELECT without UNION arms: the bound
// equality scan when the shape allows (saturation profiling showed the
// generic evaluator's per-row env work as the serving ceiling), else
// the generic evaluator.
func (ev *evaluator) execSingleSelect(sel *sqlparser.SelectStmt, parent *env) (*Result, error) {
	if res, ok, err := ev.tryEqScan(sel); err != nil || ok {
		return res, err
	}
	return ev.execGeneric(sel, parent)
}

// execGeneric evaluates any SELECT without UNION arms, row by row.
func (ev *evaluator) execGeneric(sel *sqlparser.SelectStmt, parent *env) (*Result, error) {
	// 1. FROM: build the combined-row stream and its scope. A
	// single-table FROM reads only the key range its WHERE allows.
	sc := &scope{}
	rows := []Row{{}} // one empty row: SELECT without FROM yields a single tuple
	var where sqlparser.Expr
	if len(sel.From) == 1 {
		where = sel.Where
	}
	for _, te := range sel.From {
		teRows, err := ev.tableRows(te, sc, parent, where)
		if err != nil {
			return nil, err
		}
		rows, err = ev.crossProduct(rows, teRows)
		if err != nil {
			return nil, err
		}
	}

	// 2. WHERE.
	if sel.Where != nil {
		var kept []Row
		for _, r := range rows {
			if err := ev.tick(); err != nil {
				return nil, err
			}
			ok, err := ev.predicateEnv(sel.Where, &env{scope: sc, row: r, parent: parent})
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// 3. Aggregation or plain projection.
	aggregated := len(sel.GroupBy) > 0 || sel.Having != nil
	if !aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil && sqlparser.IsAggregate(it.Expr) {
				aggregated = true
				break
			}
		}
	}

	res := &Result{}
	var orderKeys [][]sqlvalue.Value

	if aggregated {
		groups, err := ev.groupRows(sel, sc, parent, rows)
		if err != nil {
			return nil, err
		}
		res.Columns = ev.outputColumns(sel, sc)
		for _, g := range groups {
			genv := &groupEnv{scope: sc, rows: g, parent: parent}
			if sel.Having != nil {
				v, err := ev.evalAggregate(sel.Having, genv)
				if err != nil {
					return nil, err
				}
				if truth(v) != sqlvalue.True {
					continue
				}
			}
			out, err := ev.projectGroup(sel, sc, genv)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
			if len(sel.OrderBy) > 0 {
				keys, err := ev.orderKeysGroup(sel, sc, genv, out, res.Columns)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
			}
		}
	} else {
		res.Columns = ev.outputColumns(sel, sc)
		for _, r := range rows {
			e := &env{scope: sc, row: r, parent: parent}
			out, err := ev.projectRow(sel, sc, e)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
			if len(sel.OrderBy) > 0 {
				keys, err := ev.orderKeysRow(sel, e, out, res.Columns)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
			}
		}
	}

	// 4. DISTINCT.
	if sel.Distinct {
		seen := make(map[string]bool)
		var outRows []Row
		var outKeys [][]sqlvalue.Value
		for i, r := range res.Rows {
			k := r.key(rangeInts(len(r)))
			if seen[k] {
				continue
			}
			seen[k] = true
			outRows = append(outRows, r)
			if orderKeys != nil {
				outKeys = append(outKeys, orderKeys[i])
			}
		}
		res.Rows = outRows
		orderKeys = outKeys
	}

	// 5. ORDER BY.
	if len(sel.OrderBy) > 0 {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := orderKeys[idx[a]], orderKeys[idx[b]]
			for i, o := range sel.OrderBy {
				if sqlvalue.Identical(ka[i], kb[i]) {
					continue
				}
				less := sqlvalue.Less(ka[i], kb[i])
				if o.Desc {
					return !less
				}
				return less
			}
			return false
		})
		sorted := make([]Row, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}

	// 6. LIMIT/OFFSET.
	if sel.Offset != nil {
		v, err := ev.eval(sel.Offset, sc, nil)
		if err != nil {
			return nil, err
		}
		n := int(v.Int())
		if n > len(res.Rows) {
			n = len(res.Rows)
		}
		if n > 0 {
			res.Rows = res.Rows[n:]
		}
	}
	if sel.Limit != nil {
		v, err := ev.eval(sel.Limit, sc, nil)
		if err != nil {
			return nil, err
		}
		if n := int(v.Int()); n >= 0 && n < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	return res, nil
}

// eqCond is one pre-resolved WHERE conjunct over a single table:
// row[pos] op lit, or lit op row[pos] when litLeft (LIKE only: other
// comparisons are mirrored).
type eqCond struct {
	pos     int
	op      sqlparser.BinaryOp
	lit     sqlvalue.Value
	litLeft bool
}

// mirrored maps each collected operator to its form with operands swapped.
var mirrored = map[sqlparser.BinaryOp]sqlparser.BinaryOp{
	sqlparser.OpEq: sqlparser.OpEq, sqlparser.OpNe: sqlparser.OpNe,
	sqlparser.OpLt: sqlparser.OpGt, sqlparser.OpLe: sqlparser.OpGe,
	sqlparser.OpGt: sqlparser.OpLt, sqlparser.OpGe: sqlparser.OpLe,
	sqlparser.OpLike: sqlparser.OpLike,
}

// localColumn resolves e if it is a column of td, the single FROM
// table named name: unqualified or qualified by name. Anything else —
// a column td lacks could be a correlated outer reference — is not.
func localColumn(e sqlparser.Expr, td *tableData, name string) (int, bool) {
	cr, ok := e.(*sqlparser.ColumnRef)
	if !ok || cr.Table != "" && !strings.EqualFold(cr.Table, name) {
		return 0, false
	}
	return td.def.ColumnIndex(cr.Column)
}

// localConds collects the conjuncts of the AND-tree e that compare a
// local column of td with a literal. complete reports whether every
// conjunct had that form.
func localConds(e sqlparser.Expr, td *tableData, name string) (conds []eqCond, complete bool) {
	complete = true
	var walk func(sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok {
			complete = false
			return
		}
		if b.Op == sqlparser.OpAnd {
			walk(b.Left)
			walk(b.Right)
			return
		}
		if m, ok := mirrored[b.Op]; ok {
			if lit, ok := b.Right.(*sqlparser.Literal); ok {
				if pos, ok := localColumn(b.Left, td, name); ok {
					conds = append(conds, eqCond{pos: pos, op: b.Op, lit: lit.Value})
					return
				}
			}
			if lit, ok := b.Left.(*sqlparser.Literal); ok {
				if pos, ok := localColumn(b.Right, td, name); ok {
					conds = append(conds, eqCond{pos: pos, op: m, lit: lit.Value, litLeft: m == sqlparser.OpLike})
					return
				}
			}
		}
		complete = false
	}
	walk(e)
	return conds, complete
}

// candidates narrows a single-table read through the key that narrows
// it most: its leading column's =, <, <=, >, >= intersect into one
// range, and equality on a longer prefix probes a composite key. Every
// conjunct still filters every candidate, so the range need only hold
// the rows they accept — a literal of another type sorts by class, one
// never TRUE (NULL, an unordered class) accepts none. Positions come
// back ascending, so the read returns a full scan's rows in its order.
// ok is false when no key narrows the read.
func (td *tableData) candidates(conds []eqCond) (pos []int32, ok bool) {
	for _, ix := range td.keys {
		if td.def.Columns[ix.cols[0]].Type == sqlvalue.Real {
			continue // NaN equals every number under Compare: no range holds it
		}
		lo, hi, narrowed := 0, len(ix.pos), false
		var buf [4]sqlvalue.Value
		prefix := buf[:0] // the equality-pinned prefix of a composite key
		for k := 0; len(ix.cols) > 1 && k == len(prefix) && k < len(ix.cols); k++ {
			for _, c := range conds {
				if c.op == sqlparser.OpEq && c.pos == ix.cols[k] {
					prefix = append(prefix, c.lit)
					break
				}
			}
		}
		for _, c := range conds {
			if c.pos != ix.cols[0] {
				continue
			}
			// Each bound is searched for inside the range narrowed so far.
			v := []sqlvalue.Value{c.lit}
			switch c.op {
			case sqlparser.OpEq:
				lo, hi = ix.equal(v, lo, hi)
			case sqlparser.OpLt:
				hi = ix.seek(v, false, lo, hi)
			case sqlparser.OpLe:
				hi = ix.seek(v, true, lo, hi)
			case sqlparser.OpGt:
				lo = ix.seek(v, true, lo, hi)
			case sqlparser.OpGe:
				lo = ix.seek(v, false, lo, hi)
			default:
				continue
			}
			narrowed = true
		}
		if len(prefix) > 1 {
			lo, hi = ix.equal(prefix, lo, hi)
		}
		if narrowed && (!ok || hi-lo < len(pos)) {
			pos, ok = ix.pos[lo:hi], true
		}
	}
	if ok && !slices.IsSorted(pos) {
		pos = slices.Clone(pos)
		slices.Sort(pos)
	}
	return pos, ok
}

// eqProj is one pre-resolved select-list item: a column position, a
// literal (pos == -1), or the whole row (star).
type eqProj struct {
	pos  int
	lit  sqlvalue.Value
	star bool
}

// tryEqScan executes a single-table SELECT whose WHERE is an AND-tree
// of <column> <cmp> <literal> conjuncts and whose select list is plain
// columns, literals, or an unqualified *, resolving every column
// reference ONCE and then scanning its candidate rows with direct
// index accesses — no per-row env allocation, no per-row name
// resolution. ok=false means the shape is out of scope and the generic
// evaluator must run; semantics for in-scope shapes are identical to
// the generic path (same tristate WHERE filtering, same output column
// names), which TestEqScanParity pins by running every corpus query
// both ways.
func (ev *evaluator) tryEqScan(sel *sqlparser.SelectStmt) (*Result, bool, error) {
	if len(sel.From) != 1 || sel.Where == nil || sel.Distinct ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 ||
		sel.Limit != nil || sel.Offset != nil || len(sel.Union) > 0 {
		return nil, false, nil
	}
	ref, ok := sel.From[0].(*sqlparser.TableRef)
	if !ok {
		return nil, false, nil
	}
	td, ok := ev.db.tables[strings.ToLower(ref.Name)]
	if !ok {
		return nil, false, nil
	}
	name := strings.ToLower(ref.Name)
	if ref.Alias != "" {
		name = strings.ToLower(ref.Alias)
	}
	conds, complete := localConds(sel.Where, td, name)
	if !complete {
		return nil, false, nil
	}

	projs := make([]eqProj, 0, len(sel.Items))
	outWidth := 0
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			projs = append(projs, eqProj{star: true})
			outWidth += len(td.def.Columns)
		case it.Star:
			return nil, false, nil
		default:
			if sqlparser.IsAggregate(it.Expr) {
				return nil, false, nil
			}
			switch x := it.Expr.(type) {
			case *sqlparser.ColumnRef:
				pos, okr := localColumn(x, td, name)
				if !okr {
					return nil, false, nil
				}
				projs = append(projs, eqProj{pos: pos})
			case *sqlparser.Literal:
				projs = append(projs, eqProj{pos: -1, lit: x.Value})
			default:
				return nil, false, nil
			}
			outWidth++
		}
	}

	pos, narrowed := td.candidates(conds)
	n := len(td.rows)
	if narrowed {
		n = len(pos)
	}
	sc := &scope{}
	sc.addTable(td.def, name, 0)
	res := &Result{Columns: ev.outputColumns(sel, sc)}
	for i := range n {
		p := i
		if narrowed {
			p = int(pos[i])
		}
		r := td.rows[p]
		if err := ev.tick(); err != nil {
			return nil, false, err
		}
		keep := true
		for _, c := range conds {
			l, rv := r[c.pos], c.lit
			if c.litLeft {
				l, rv = c.lit, r[c.pos]
			}
			v, err := applyBinary(c.op, l, rv)
			if err != nil {
				return nil, false, err
			}
			if truth(v) != sqlvalue.True {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		out := make(Row, 0, outWidth)
		for _, p := range projs {
			switch {
			case p.star:
				out = append(out, r...)
			case p.pos < 0:
				out = append(out, p.lit)
			default:
				out = append(out, r[p.pos])
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, true, nil
}

// tableRows enumerates the rows of a FROM item, extending sc with its
// tables at fresh offsets. Returned rows are padded to start at the
// registered offsets relative to the current sc.width at call time.
// where, the WHERE of a query whose whole FROM is te, narrows a table.
func (ev *evaluator) tableRows(te sqlparser.TableExpr, sc *scope, parent *env, where sqlparser.Expr) ([]Row, error) {
	base := sc.width
	switch t := te.(type) {
	case *sqlparser.TableRef:
		td, ok := ev.db.tables[strings.ToLower(t.Name)]
		if !ok {
			return nil, fmt.Errorf("engine: no table %q", t.Name)
		}
		name := strings.ToLower(t.Name)
		if t.Alias != "" {
			name = strings.ToLower(t.Alias)
		}
		sc.addTable(td.def, name, base)
		conds, _ := localConds(where, td, name)
		pos, narrowed := td.candidates(conds)
		if !narrowed {
			return slices.Clone(td.rows), nil
		}
		out := make([]Row, len(pos))
		for i, p := range pos {
			out[i] = td.rows[p]
		}
		return out, nil

	case *sqlparser.JoinExpr:
		leftRows, err := ev.tableRows(t.Left, sc, parent, nil)
		if err != nil {
			return nil, err
		}
		leftWidth := sc.width - base
		rightRows, err := ev.tableRows(t.Right, sc, parent, nil)
		if err != nil {
			return nil, err
		}
		rightWidth := sc.width - base - leftWidth

		var out []Row
		for _, lr := range leftRows {
			matched := false
			for _, rr := range rightRows {
				if err := ev.tick(); err != nil {
					return nil, err
				}
				combined := make(Row, 0, leftWidth+rightWidth)
				combined = append(combined, lr...)
				combined = append(combined, rr...)
				if t.On != nil {
					// Evaluate ON in a scope where this join's tables
					// are positioned at their registered offsets; pad
					// the row to absolute width.
					abs := make(Row, base+leftWidth+rightWidth)
					for i := range abs {
						abs[i] = sqlvalue.NewNull()
					}
					copy(abs[base:], combined)
					ok, err := ev.predicateEnv(t.On, &env{scope: sc, row: abs, parent: parent})
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				matched = true
				out = append(out, combined)
			}
			if !matched && t.Type == sqlparser.LeftJoin {
				combined := make(Row, leftWidth+rightWidth)
				copy(combined, lr)
				for i := leftWidth; i < len(combined); i++ {
					combined[i] = sqlvalue.NewNull()
				}
				out = append(out, combined)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("engine: unsupported FROM item %T", te)
}

func (ev *evaluator) crossProduct(acc, next []Row) ([]Row, error) {
	if len(next) == 0 {
		return nil, nil
	}
	out := make([]Row, 0, len(acc)*len(next))
	for _, a := range acc {
		for _, b := range next {
			if err := ev.tick(); err != nil {
				return nil, err
			}
			r := make(Row, 0, len(a)+len(b))
			r = append(r, a...)
			r = append(r, b...)
			out = append(out, r)
		}
	}
	return out, nil
}

// outputColumns derives the result column names.
func (ev *evaluator) outputColumns(sel *sqlparser.SelectStmt, sc *scope) []string {
	var cols []string
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			for _, e := range sc.entries {
				cols = append(cols, e.table.ColumnNames()...)
			}
		case it.Star:
			for _, e := range sc.entries {
				if e.name == strings.ToLower(it.Table) {
					cols = append(cols, e.table.ColumnNames()...)
				}
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols = append(cols, cr.Column)
			} else {
				cols = append(cols, it.Expr.SQL())
			}
		}
	}
	return cols
}

func (ev *evaluator) projectRow(sel *sqlparser.SelectStmt, sc *scope, e *env) (Row, error) {
	var out Row
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			for _, se := range sc.entries {
				out = append(out, e.row[se.offset:se.offset+len(se.table.Columns)]...)
			}
		case it.Star:
			found := false
			for _, se := range sc.entries {
				if se.name == strings.ToLower(it.Table) {
					out = append(out, e.row[se.offset:se.offset+len(se.table.Columns)]...)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("engine: unknown table %q in select list", it.Table)
			}
		default:
			v, err := ev.evalEnv(it.Expr, e)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

func (ev *evaluator) orderKeysRow(sel *sqlparser.SelectStmt, e *env, out Row, cols []string) ([]sqlvalue.Value, error) {
	keys := make([]sqlvalue.Value, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		v, err := ev.orderValue(o.Expr, cols, out, func(x sqlparser.Expr) (sqlvalue.Value, error) {
			return ev.evalEnv(x, e)
		})
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// orderValue resolves an ORDER BY expression: positional integer,
// select-list alias/column name, or an arbitrary expression evaluated
// by fallback.
func (ev *evaluator) orderValue(x sqlparser.Expr, cols []string, out Row, fallback func(sqlparser.Expr) (sqlvalue.Value, error)) (sqlvalue.Value, error) {
	if lit, ok := x.(*sqlparser.Literal); ok && lit.Value.Type() == sqlvalue.Int {
		i := int(lit.Value.Int()) - 1
		if i < 0 || i >= len(out) {
			return sqlvalue.Value{}, fmt.Errorf("engine: ORDER BY position %d out of range", i+1)
		}
		return out[i], nil
	}
	if cr, ok := x.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for i, c := range cols {
			if strings.EqualFold(c, cr.Column) {
				return out[i], nil
			}
		}
	}
	return fallback(x)
}

// --- Aggregation ---

type groupEnv struct {
	scope  *scope
	rows   []Row // the group's source rows; empty only for global aggregate over empty input
	parent *env
}

func (g *groupEnv) representative() Row {
	if len(g.rows) > 0 {
		return g.rows[0]
	}
	return make(Row, g.scope.width)
}

func (ev *evaluator) groupRows(sel *sqlparser.SelectStmt, sc *scope, parent *env, rows []Row) ([][]Row, error) {
	if len(sel.GroupBy) == 0 {
		// One global group (possibly empty).
		return [][]Row{rows}, nil
	}
	order := []string{}
	groups := make(map[string][]Row)
	for _, r := range rows {
		e := &env{scope: sc, row: r, parent: parent}
		var kb strings.Builder
		for _, g := range sel.GroupBy {
			v, err := ev.evalEnv(g, e)
			if err != nil {
				return nil, err
			}
			kb.WriteString(v.Key())
			kb.WriteByte(0)
		}
		k := kb.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([][]Row, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out, nil
}

func (ev *evaluator) projectGroup(sel *sqlparser.SelectStmt, sc *scope, g *groupEnv) (Row, error) {
	var out Row
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("engine: SELECT * is not allowed with aggregation")
		}
		v, err := ev.evalAggregate(it.Expr, g)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (ev *evaluator) orderKeysGroup(sel *sqlparser.SelectStmt, sc *scope, g *groupEnv, out Row, cols []string) ([]sqlvalue.Value, error) {
	keys := make([]sqlvalue.Value, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		v, err := ev.orderValue(o.Expr, cols, out, func(x sqlparser.Expr) (sqlvalue.Value, error) {
			return ev.evalAggregate(x, g)
		})
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// evalAggregate evaluates an expression in group context: aggregate
// calls fold over the group's rows; everything else is evaluated on a
// representative row.
func (ev *evaluator) evalAggregate(x sqlparser.Expr, g *groupEnv) (sqlvalue.Value, error) {
	switch e := x.(type) {
	case *sqlparser.FuncExpr:
		if sqlparser.AggregateFuncs[e.Name] {
			return ev.foldAggregate(e, g)
		}
	case *sqlparser.BinaryExpr:
		l, err := ev.evalAggregate(e.Left, g)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		r, err := ev.evalAggregate(e.Right, g)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		return applyBinary(e.Op, l, r)
	case *sqlparser.UnaryExpr:
		v, err := ev.evalAggregate(e.Expr, g)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		return applyUnary(e.Op, v)
	}
	return ev.evalEnv(x, &env{scope: g.scope, row: g.representative(), parent: g.parent})
}

func (ev *evaluator) foldAggregate(f *sqlparser.FuncExpr, g *groupEnv) (sqlvalue.Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return sqlvalue.Value{}, fmt.Errorf("engine: %s(*) is not supported", f.Name)
		}
		return sqlvalue.NewInt(int64(len(g.rows))), nil
	}
	if len(f.Args) != 1 {
		return sqlvalue.Value{}, fmt.Errorf("engine: aggregate %s takes one argument", f.Name)
	}
	var vals []sqlvalue.Value
	seen := make(map[string]bool)
	for _, r := range g.rows {
		v, err := ev.evalEnv(f.Args[0], &env{scope: g.scope, row: r, parent: g.parent})
		if err != nil {
			return sqlvalue.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if f.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return sqlvalue.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqlvalue.NewNull(), nil
		}
		sum := vals[0]
		var err error
		for _, v := range vals[1:] {
			sum, err = sqlvalue.Add(sum, v)
			if err != nil {
				return sqlvalue.Value{}, err
			}
		}
		if f.Name == "SUM" {
			return sum, nil
		}
		return sqlvalue.Div(sqlvalue.NewReal(sum.Real()), sqlvalue.NewInt(int64(len(vals))))
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqlvalue.NewNull(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := sqlvalue.Compare(v, best)
			if !ok {
				return sqlvalue.Value{}, fmt.Errorf("engine: mixed types in %s", f.Name)
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sqlvalue.Value{}, fmt.Errorf("engine: unknown aggregate %s", f.Name)
}

// --- Scalar expression evaluation ---

// predicate evaluates e as a WHERE condition over (scope,row); a nil
// expression is TRUE.
func (ev *evaluator) predicate(e sqlparser.Expr, sc *scope, row Row) (bool, error) {
	return ev.predicateEnv(e, &env{scope: sc, row: row})
}

func (ev *evaluator) predicateEnv(e sqlparser.Expr, en *env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := ev.evalEnv(e, en)
	if err != nil {
		return false, err
	}
	return truth(v) == sqlvalue.True, nil
}

// truth converts a value to a Tristate (NULL -> UNKNOWN; BOOLEAN as
// itself; numbers by non-zero, matching SQLite's permissiveness).
func truth(v sqlvalue.Value) sqlvalue.Tristate {
	switch v.Type() {
	case sqlvalue.Null:
		return sqlvalue.Unknown
	case sqlvalue.Bool:
		return sqlvalue.TristateOf(v.Bool())
	case sqlvalue.Int:
		return sqlvalue.TristateOf(v.Int() != 0)
	case sqlvalue.Real:
		return sqlvalue.TristateOf(v.Real() != 0)
	}
	return sqlvalue.False
}

func (ev *evaluator) eval(e sqlparser.Expr, sc *scope, row Row) (sqlvalue.Value, error) {
	return ev.evalEnv(e, &env{scope: sc, row: row})
}

func (ev *evaluator) evalEnv(e sqlparser.Expr, en *env) (sqlvalue.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil

	case *sqlparser.Param:
		return sqlvalue.Value{}, fmt.Errorf("engine: unbound parameter %s", x.SQL())

	case *sqlparser.ColumnRef:
		for scope := en; scope != nil; scope = scope.parent {
			pos, ok, err := scope.scope.resolve(x.Table, x.Column)
			if err != nil {
				return sqlvalue.Value{}, err
			}
			if ok {
				if scope.row == nil || pos >= len(scope.row) {
					return sqlvalue.NewNull(), nil
				}
				return scope.row[pos], nil
			}
		}
		return sqlvalue.Value{}, fmt.Errorf("engine: unknown column %s", x.SQL())

	case *sqlparser.BinaryExpr:
		// Short-circuit three-valued AND/OR.
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			l, err := ev.evalEnv(x.Left, en)
			if err != nil {
				return sqlvalue.Value{}, err
			}
			lt := truth(l)
			if x.Op == sqlparser.OpAnd && lt == sqlvalue.False {
				return sqlvalue.NewBool(false), nil
			}
			if x.Op == sqlparser.OpOr && lt == sqlvalue.True {
				return sqlvalue.NewBool(true), nil
			}
			r, err := ev.evalEnv(x.Right, en)
			if err != nil {
				return sqlvalue.Value{}, err
			}
			rt := truth(r)
			var out sqlvalue.Tristate
			if x.Op == sqlparser.OpAnd {
				out = lt.And(rt)
			} else {
				out = lt.Or(rt)
			}
			return tristateValue(out), nil
		}
		l, err := ev.evalEnv(x.Left, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		r, err := ev.evalEnv(x.Right, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		return applyBinary(x.Op, l, r)

	case *sqlparser.UnaryExpr:
		v, err := ev.evalEnv(x.Expr, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		return applyUnary(x.Op, v)

	case *sqlparser.IsNullExpr:
		v, err := ev.evalEnv(x.Expr, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		isNull := v.IsNull()
		if x.Not {
			isNull = !isNull
		}
		return sqlvalue.NewBool(isNull), nil

	case *sqlparser.InExpr:
		return ev.evalIn(x, en)

	case *sqlparser.ExistsExpr:
		res, err := ev.execSelect(x.Subquery, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		nonEmpty := len(res.Rows) > 0
		if x.Not {
			nonEmpty = !nonEmpty
		}
		return sqlvalue.NewBool(nonEmpty), nil

	case *sqlparser.BetweenExpr:
		v, err := ev.evalEnv(x.Expr, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		lo, err := ev.evalEnv(x.Lo, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		hi, err := ev.evalEnv(x.Hi, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		geLo, err := applyBinary(sqlparser.OpGe, v, lo)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		leHi, err := applyBinary(sqlparser.OpLe, v, hi)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		t := truth(geLo).And(truth(leHi))
		if x.Not {
			t = t.Not()
		}
		return tristateValue(t), nil

	case *sqlparser.FuncExpr:
		return ev.evalScalarFunc(x, en)

	case *sqlparser.SubqueryExpr:
		res, err := ev.execSelect(x.Subquery, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		if len(res.Rows) == 0 {
			return sqlvalue.NewNull(), nil
		}
		if len(res.Rows) > 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: scalar subquery returned %d rows", len(res.Rows))
		}
		if len(res.Rows[0]) != 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: scalar subquery returned %d columns", len(res.Rows[0]))
		}
		return res.Rows[0][0], nil
	}
	return sqlvalue.Value{}, fmt.Errorf("engine: cannot evaluate %T", e)
}

func (ev *evaluator) evalIn(x *sqlparser.InExpr, en *env) (sqlvalue.Value, error) {
	v, err := ev.evalEnv(x.Expr, en)
	if err != nil {
		return sqlvalue.Value{}, err
	}
	var candidates []sqlvalue.Value
	if x.Subquery != nil {
		res, err := ev.execSelect(x.Subquery, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		for _, r := range res.Rows {
			if len(r) != 1 {
				return sqlvalue.Value{}, fmt.Errorf("engine: IN subquery must return one column")
			}
			candidates = append(candidates, r[0])
		}
	} else {
		for _, le := range x.List {
			c, err := ev.evalEnv(le, en)
			if err != nil {
				return sqlvalue.Value{}, err
			}
			candidates = append(candidates, c)
		}
	}
	// SQL IN semantics with NULLs.
	result := sqlvalue.False
	for _, c := range candidates {
		eq := sqlvalue.Equal(v, c)
		result = result.Or(eq)
		if result == sqlvalue.True {
			break
		}
	}
	if x.Not {
		result = result.Not()
	}
	return tristateValue(result), nil
}

func (ev *evaluator) evalScalarFunc(f *sqlparser.FuncExpr, en *env) (sqlvalue.Value, error) {
	if sqlparser.AggregateFuncs[f.Name] {
		return sqlvalue.Value{}, fmt.Errorf("engine: aggregate %s outside GROUP BY context", f.Name)
	}
	args := make([]sqlvalue.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := ev.evalEnv(a, en)
		if err != nil {
			return sqlvalue.Value{}, err
		}
		args[i] = v
	}
	switch f.Name {
	case "LOWER":
		if len(args) != 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: LOWER takes one argument")
		}
		if args[0].IsNull() {
			return sqlvalue.NewNull(), nil
		}
		return sqlvalue.NewText(strings.ToLower(args[0].Text())), nil
	case "UPPER":
		if len(args) != 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: UPPER takes one argument")
		}
		if args[0].IsNull() {
			return sqlvalue.NewNull(), nil
		}
		return sqlvalue.NewText(strings.ToUpper(args[0].Text())), nil
	case "LENGTH":
		if len(args) != 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: LENGTH takes one argument")
		}
		if args[0].IsNull() {
			return sqlvalue.NewNull(), nil
		}
		return sqlvalue.NewInt(int64(len(args[0].Text()))), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlvalue.NewNull(), nil
	case "ABS":
		if len(args) != 1 {
			return sqlvalue.Value{}, fmt.Errorf("engine: ABS takes one argument")
		}
		switch args[0].Type() {
		case sqlvalue.Null:
			return sqlvalue.NewNull(), nil
		case sqlvalue.Int:
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return sqlvalue.NewInt(n), nil
		case sqlvalue.Real:
			x := args[0].Real()
			if x < 0 {
				x = -x
			}
			return sqlvalue.NewReal(x), nil
		}
		return sqlvalue.Value{}, fmt.Errorf("engine: ABS of %s", args[0].Type())
	}
	return sqlvalue.Value{}, fmt.Errorf("engine: unknown function %s", f.Name)
}

func tristateValue(t sqlvalue.Tristate) sqlvalue.Value {
	switch t {
	case sqlvalue.True:
		return sqlvalue.NewBool(true)
	case sqlvalue.False:
		return sqlvalue.NewBool(false)
	}
	return sqlvalue.NewNull()
}

func applyBinary(op sqlparser.BinaryOp, l, r sqlvalue.Value) (sqlvalue.Value, error) {
	switch op {
	case sqlparser.OpEq:
		return tristateValue(sqlvalue.Equal(l, r)), nil
	case sqlparser.OpNe:
		return tristateValue(sqlvalue.Equal(l, r).Not()), nil
	case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		c, ok := sqlvalue.Compare(l, r)
		if !ok {
			return sqlvalue.NewNull(), nil
		}
		var b bool
		switch op {
		case sqlparser.OpLt:
			b = c < 0
		case sqlparser.OpLe:
			b = c <= 0
		case sqlparser.OpGt:
			b = c > 0
		case sqlparser.OpGe:
			b = c >= 0
		}
		return sqlvalue.NewBool(b), nil
	case sqlparser.OpAdd:
		return sqlvalue.Add(l, r)
	case sqlparser.OpSub:
		return sqlvalue.Sub(l, r)
	case sqlparser.OpMul:
		return sqlvalue.Mul(l, r)
	case sqlparser.OpDiv:
		return sqlvalue.Div(l, r)
	case sqlparser.OpMod:
		return sqlvalue.Mod(l, r)
	case sqlparser.OpLike:
		return tristateValue(sqlvalue.Like(l, r)), nil
	case sqlparser.OpAnd:
		return tristateValue(truth(l).And(truth(r))), nil
	case sqlparser.OpOr:
		return tristateValue(truth(l).Or(truth(r))), nil
	}
	return sqlvalue.Value{}, fmt.Errorf("engine: unknown binary op %d", op)
}

func applyUnary(op byte, v sqlvalue.Value) (sqlvalue.Value, error) {
	switch op {
	case '!':
		return tristateValue(truth(v).Not()), nil
	case '-':
		switch v.Type() {
		case sqlvalue.Null:
			return sqlvalue.NewNull(), nil
		case sqlvalue.Int:
			return sqlvalue.NewInt(-v.Int()), nil
		case sqlvalue.Real:
			return sqlvalue.NewReal(-v.Real()), nil
		}
		return sqlvalue.Value{}, fmt.Errorf("engine: cannot negate %s", v.Type())
	}
	return sqlvalue.Value{}, fmt.Errorf("engine: unknown unary op %q", op)
}
