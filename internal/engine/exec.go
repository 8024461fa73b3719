package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
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
	return db.read(ctx, sel, &rowsOut{})
}

// QueryEach runs a SELECT as QueryCtx does but hands each row to emit,
// returning the columns and the row count. A bound scan emits a row as
// it finds it, under the read lock (emit must not wait on a writer, or
// a socket), in a buffer reused for the next; other reads build first.
func (db *DB) QueryEach(ctx context.Context, sel *sqlparser.SelectStmt, emit func(Row)) ([]string, int, error) {
	out := rowsOut{emit: emit}
	res, err := db.read(ctx, sel, &out)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range res.Rows {
		emit(r)
	}
	return res.Columns, out.n + len(res.Rows), nil
}

// read runs sel under the read lock, counted into engine.queries and
// timed into engine.scan.micros.
func (db *DB) read(ctx context.Context, sel *sqlparser.SelectStmt, out *rowsOut) (*Result, error) {
	obs := db.obs.Load()
	var start time.Time
	if obs != nil {
		obs.queries.Inc()
		start = time.Now()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	res, err := (&evaluator{db: db, ctx: ctx}).execSelect(sel, nil, out)
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

// ResultColumns returns the column names a run of sel returns in
// Result.Columns, without running it: what a Postgres Describe
// announces before any row exists. A FROM table the schema lacks adds
// no columns; running the statement reports it.
func (db *DB) ResultColumns(sel *sqlparser.SelectStmt) []string {
	sc := &scope{}
	for _, te := range sel.From {
		db.scopeFrom(te, sc)
	}
	return outputColumns(sel, sc)
}

// scopeFrom registers the tables of FROM item te in sc at the offsets
// tableRows gives them.
func (db *DB) scopeFrom(te sqlparser.TableExpr, sc *scope) {
	switch t := te.(type) {
	case *sqlparser.TableRef:
		if td, ok := db.table(t.Name); ok {
			sc.addTable(td.def, refName(t), sc.width)
		}
	case *sqlparser.JoinExpr:
		db.scopeFrom(t.Left, sc)
		db.scopeFrom(t.Right, sc)
	}
}

// scope maps table names/aliases to column ranges of a combined row.
type scope struct {
	entries []scopeEntry
	width   int
}

type scopeEntry struct {
	name   string // alias or table name as written; matched case-insensitively
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
	found, at := false, 0
	for _, e := range s.entries {
		if table != "" && !strings.EqualFold(e.name, table) {
			continue
		}
		if p, ok := e.table.ColumnIndex(column); ok {
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
// scanning within a bounded number of rows. It is small enough to
// inline; the poll is not.
func (ev *evaluator) tick() error {
	if ev.ops++; ev.ops&1023 != 0 || ev.ctx == nil {
		return nil
	}
	return ev.poll()
}

func (ev *evaluator) poll() error {
	if err := ev.ctx.Err(); err != nil {
		return fmt.Errorf("engine: query %w", acerr.Canceled(err))
	}
	return nil
}

// execSelect runs a SELECT against the (already read-locked) storage,
// including any UNION arms: arms are evaluated with the same parent
// environment, concatenated (deduplicating unless UNION ALL), and the
// head select's ORDER BY / LIMIT / OFFSET apply to the combined rows.
// Without arms it runs the bound scan into out when the shape allows
// (the generic evaluator's per-row env work was the serving ceiling).
func (ev *evaluator) execSelect(sel *sqlparser.SelectStmt, parent *env, out *rowsOut) (*Result, error) {
	if len(sel.Union) == 0 {
		if cols, ok, err := ev.tryEqScan(sel, out); err != nil || ok {
			return &Result{Columns: cols, Rows: out.rows}, err
		}
		return ev.execGeneric(sel, parent)
	}
	head := *sel
	head.Union = nil
	orderBy, limit, offset := head.OrderBy, head.Limit, head.Offset
	head.OrderBy, head.Limit, head.Offset = nil, nil, nil

	res, err := ev.execSelect(&head, parent, &rowsOut{})
	if err != nil {
		return nil, err
	}
	allDup := false
	for _, u := range sel.Union {
		arm, err := ev.execSelect(u.Select, parent, &rowsOut{})
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
			k := rowKey(r)
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
		res.Columns = outputColumns(sel, sc)
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
		res.Columns = outputColumns(sel, sc)
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
			k := rowKey(r)
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

// holds reports whether the conjunct is TRUE on row r — exactly
// truth(applyBinary(op, l, r)) == True — with one comparison that builds
// no Value: INTEGER against INTEGER, and TEXT = or <> against TEXT,
// compare the payloads read through pointers (sqlvalue.TypeOf); every
// other pair of classes goes through Compare, Equal or Like.
func (c *eqCond) holds(r Row) bool {
	v, lit := &r[c.pos], &c.lit
	switch t := sqlvalue.TypeOf(v); {
	case t == sqlvalue.Int && sqlvalue.TypeOf(lit) == sqlvalue.Int && c.op != sqlparser.OpLike:
		return c.order(cmp.Compare(sqlvalue.IntOf(v), sqlvalue.IntOf(lit)))
	case t == sqlvalue.Text && sqlvalue.TypeOf(lit) == sqlvalue.Text && (c.op == sqlparser.OpEq || c.op == sqlparser.OpNe):
		return (sqlvalue.TextOf(v) == sqlvalue.TextOf(lit)) == (c.op == sqlparser.OpEq)
	}
	switch c.op {
	case sqlparser.OpEq:
		return sqlvalue.Equal(*v, c.lit) == sqlvalue.True
	case sqlparser.OpNe:
		return sqlvalue.Equal(*v, c.lit) == sqlvalue.False
	case sqlparser.OpLike:
		if c.litLeft {
			return sqlvalue.Like(c.lit, *v) == sqlvalue.True
		}
		return sqlvalue.Like(*v, c.lit) == sqlvalue.True
	}
	n, ok := sqlvalue.Compare(*v, c.lit)
	return ok && c.order(n)
}

// order reports whether c's comparison operator accepts an ordering
// that came out n.
func (c *eqCond) order(n int) bool {
	switch c.op {
	case sqlparser.OpEq:
		return n == 0
	case sqlparser.OpNe:
		return n != 0
	case sqlparser.OpLt:
		return n < 0
	case sqlparser.OpLe:
		return n <= 0
	case sqlparser.OpGt:
		return n > 0
	case sqlparser.OpGe:
		return n >= 0
	}
	return false
}

// mirrored maps each collected operator to its form with operands swapped.
var mirrored = map[sqlparser.BinaryOp]sqlparser.BinaryOp{
	sqlparser.OpEq: sqlparser.OpEq, sqlparser.OpNe: sqlparser.OpNe,
	sqlparser.OpLt: sqlparser.OpGt, sqlparser.OpLe: sqlparser.OpGe,
	sqlparser.OpGt: sqlparser.OpLt, sqlparser.OpGe: sqlparser.OpLe,
	sqlparser.OpLike: sqlparser.OpLike,
}

// refName is the name a FROM table is referenced by: its alias, else
// its table name.
func refName(t *sqlparser.TableRef) string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
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

// localConds appends to conds the conjuncts of the AND-tree e that
// compare a local column of td with a literal. complete reports whether
// every conjunct had that form.
func localConds(conds []eqCond, e sqlparser.Expr, td *tableData, name string) (_ []eqCond, complete bool) {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok {
		return conds, false
	}
	if b.Op == sqlparser.OpAnd {
		conds, left := localConds(conds, b.Left, td, name)
		conds, right := localConds(conds, b.Right, td, name)
		return conds, left && right
	}
	if m, ok := mirrored[b.Op]; ok {
		if lit, ok := b.Right.(*sqlparser.Literal); ok {
			if pos, ok := localColumn(b.Left, td, name); ok {
				return append(conds, eqCond{pos: pos, op: b.Op, lit: lit.Value}), true
			}
		}
		if lit, ok := b.Left.(*sqlparser.Literal); ok {
			if pos, ok := localColumn(b.Right, td, name); ok {
				return append(conds, eqCond{pos: pos, op: m, lit: lit.Value, litLeft: m == sqlparser.OpLike}), true
			}
		}
	}
	return conds, false
}

// candidates narrows a single-table statement through the key that
// narrows it most: its leading column's =, <, <=, >, >= intersect into
// one range, and equality on a longer prefix probes a composite key.
// When no key narrows it to at most one row, a secondary index whose
// leading columns its equalities pin may narrow it further; the first
// such read builds the index. The range holds every row the conjuncts
// accept — a literal of another type sorts by class, one never TRUE
// (NULL, an unordered class) accepts none — and, for each conjunct that
// narrowed it and is exact (exact), only those rows. rest is conds
// without those conjuncts, filtered in place: what the caller must
// still test on each candidate. Positions come back ascending, so the
// statement meets a full scan's rows in its order. ok is false when no
// index narrows the statement; rest is then conds.
func (db *DB) candidates(td *tableData, conds []eqCond) (pos []int32, rest []eqCond, ok bool) {
	var buf keyBuf
	var enforced uint64 // bit i: the chosen range enforces conds[i]
	for _, ix := range td.keys {
		if td.def.Columns[ix.cols[0]].Type == sqlvalue.Real {
			continue // NaN equals every number under Compare: no range holds it
		}
		lo, hi, narrowed, exact := 0, len(ix.pos), false, uint64(0)
		for i, c := range conds {
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
			exact |= td.exact(i, &c)
		}
		if prefix, used := eqPrefix(buf[:0], td, ix.cols, conds); len(prefix) > 1 {
			lo, hi = ix.equal(prefix, lo, hi)
			exact |= used
		}
		if narrowed && (!ok || hi-lo < len(pos)) {
			pos, ok, enforced = ix.pos[lo:hi], true, exact
		}
	}
	for _, sx := range td.secs {
		prefix, used := eqPrefix(buf[:0], td, sx.cols, conds)
		if ok && len(pos) <= 1 || len(prefix) == 0 {
			continue
		}
		sx.build(td.rows, db.obs.Load())
		lo := sx.seek(td.rows, prefix, -1, 0, len(sx.pos))
		hi := sx.seek(td.rows, prefix, math.MaxInt32, lo, len(sx.pos))
		if !ok || hi-lo < len(pos) {
			pos, ok, enforced = sx.pos[lo:hi], true, used
		}
	}
	if ok && !slices.IsSorted(pos) {
		pos = slices.Clone(pos)
		slices.Sort(pos)
	}
	rest = conds[:0]
	for i, c := range conds {
		if enforced&(1<<i) == 0 {
			rest = append(rest, c)
		}
	}
	return pos, rest, ok
}

// exact returns bit i if a range of an index over c's column, narrowed
// by c, holds exactly the rows c accepts, else 0. compareKey orders the
// column's values as Compare does only when the column is NOT NULL
// (NULL sorts first under compareKey and compares to nothing), not
// REAL (NaN) and the literal is of the column's class (2.0 and '2'
// sort by class against an INTEGER column, and NULL never compares).
// A conjunct past the 64th is never exact.
func (td *tableData) exact(i int, c *eqCond) uint64 {
	col := &td.def.Columns[c.pos]
	if !col.NotNull || col.Type == sqlvalue.Real || c.lit.Type() != col.Type {
		return 0
	}
	return 1 << i
}

// eqPrefix appends to buf the literals conds equate the leading columns
// cols of an index with, up to the first column none pins, and returns
// the exact bits (tableData.exact) of the conjuncts it took. It stops,
// too, at a REAL column or a NaN literal: NaN equals every number under
// Equal, which eqCond.holds tests, but only itself under compareKey, so
// no range of the index holds every row such an equality accepts.
func eqPrefix(buf []sqlvalue.Value, td *tableData, cols []int, conds []eqCond) (_ []sqlvalue.Value, exact uint64) {
next:
	for _, col := range cols {
		for i, c := range conds {
			if c.op == sqlparser.OpEq && c.pos == col && td.def.Columns[col].Type != sqlvalue.Real &&
				!(c.lit.Type() == sqlvalue.Real && math.IsNaN(c.lit.Real())) {
				buf = append(buf, c.lit)
				exact |= td.exact(i, &c)
				continue next
			}
		}
		break
	}
	return buf, exact
}

// matchRows appends to buf, ascending, the positions of td's rows that
// where accepts: the rows an UPDATE or DELETE writes. It narrows through
// candidates as a read does; each candidate is then tested with
// eqCond.holds for every conjunct the range does not enforce when every
// conjunct is column op literal, else with the generic evaluator (an
// OR, a subquery, an expression). A nil where accepts every row.
func (ev *evaluator) matchRows(buf []int32, td *tableData, name string, where sqlparser.Expr) ([]int32, error) {
	var condBuf [8]eqCond
	conds, complete := localConds(condBuf[:0], where, td, name)
	pos, conds, narrowed := ev.db.candidates(td, conds)
	n := len(td.rows)
	if narrowed {
		n = len(pos)
	}
	var sc *scope
	if where != nil && !complete {
		sc = newScope(nil)
		sc.addTable(td.def, name, 0)
	}
rows:
	for i := range n {
		p := i
		if narrowed {
			p = int(pos[i])
		}
		if err := ev.tick(); err != nil {
			return nil, err
		}
		if sc == nil {
			for c := range conds {
				if !conds[c].holds(td.rows[p]) {
					continue rows
				}
			}
		} else if ok, err := ev.predicate(where, sc, td.rows[p]); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		buf = append(buf, int32(p))
	}
	return buf, nil
}

// eqProj is one pre-resolved select-list item: a column position, a
// literal (pos == -1), or the whole row (star).
type eqProj struct {
	pos  int
	lit  sqlvalue.Value
	star bool
}

// keptWords is the stack bitmap in which the bound scan marks the
// candidates it keeps: 4 096 candidates before it allocates one.
const keptWords = 64

// rowsOut takes a bound scan's rows: emitted (and counted), or collected.
type rowsOut struct {
	emit func(Row)
	rows []Row
	n    int
}

// tryEqScan executes a single-table SELECT whose WHERE is an AND-tree
// of <column> <cmp> <literal> conjuncts and whose select list is plain
// columns, literals, or an unqualified *, resolving every column
// reference ONCE and then scanning its candidate rows with direct
// index accesses — no per-row env, no per-row name resolution, no
// per-row Value or allocation: each conjunct the candidate range does
// not enforce is one comparison (eqCond.holds). A streamed row is
// projected into one reused buffer as the scan finds it. Collected, the
// kept candidates are marked first, then projected into one exact-size
// slab that every result row is a capacity-capped window of, so a read
// allocates its Result, its column names, the slab and the row headers,
// however many rows it returns. ok=false means the shape is out of scope and the generic
// evaluator must run; semantics for in-scope shapes are identical to
// the generic path (same tristate WHERE filtering, same output column
// names), which TestEqScanParity pins by running every corpus query
// both ways.
func (ev *evaluator) tryEqScan(sel *sqlparser.SelectStmt, out *rowsOut) (cols []string, ok bool, err error) {
	if len(sel.From) != 1 || sel.Where == nil || sel.Distinct ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 ||
		sel.Limit != nil || sel.Offset != nil || len(sel.Union) > 0 {
		return nil, false, nil
	}
	ref, ok := sel.From[0].(*sqlparser.TableRef)
	if !ok {
		return nil, false, nil
	}
	td, ok := ev.db.table(ref.Name)
	if !ok {
		return nil, false, nil
	}
	name := refName(ref)
	var condBuf [8]eqCond
	conds, complete := localConds(condBuf[:0], sel.Where, td, name)
	if !complete {
		return nil, false, nil
	}

	var projBuf [8]eqProj
	projs := projBuf[:0]
	width := 0
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			projs = append(projs, eqProj{star: true})
			width += len(td.def.Columns)
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
			width++
		}
	}

	cols = outputColumns(sel, &scope{entries: []scopeEntry{{name: name, table: td.def}}})
	pos, conds, narrowed := ev.db.candidates(td, conds)
	n := len(td.rows)
	if narrowed {
		n = len(pos)
	}
	var buf Row // the streamed rows' buffer
	if out.emit != nil {
		buf = make(Row, 0, width)
	}
	var keptBuf [keptWords]uint64
	kept := keptBuf[:]
	if words := (n + 63) / 64; out.emit == nil && words > len(kept) {
		kept = make([]uint64, words)
	}
	nkept := 0
scan:
	for i := range n {
		p := i
		if narrowed {
			p = int(pos[i])
		}
		if err := ev.tick(); err != nil {
			return nil, false, err
		}
		r := td.rows[p]
		for c := range conds {
			if !conds[c].holds(r) {
				continue scan
			}
		}
		if out.emit != nil {
			out.emit(project(buf, projs, r))
			out.n++
			continue
		}
		kept[i/64] |= 1 << (i % 64)
		nkept++
	}
	if nkept == 0 {
		return cols, true, nil
	}

	slab := make([]sqlvalue.Value, nkept*width)
	out.rows = make([]Row, 0, nkept)
	for w, word := range kept {
		for ; word != 0; word &= word - 1 {
			p := w*64 + bits.TrailingZeros64(word)
			if narrowed {
				p = int(pos[p])
			}
			at := len(out.rows) * width
			out.rows = append(out.rows, project(slab[at:at:at+width], projs, td.rows[p]))
		}
	}
	return cols, true, nil
}

// project appends to dst the cells projs select from stored row r.
func project(dst Row, projs []eqProj, r Row) Row {
	for i := range projs {
		switch pr := &projs[i]; {
		case pr.star:
			dst = append(dst, r...)
		case pr.pos < 0:
			dst = append(dst, pr.lit)
		default:
			dst = append(dst, r[pr.pos])
		}
	}
	return dst
}

// tableRows enumerates the rows of a FROM item, extending sc with its
// tables at fresh offsets. Returned rows are padded to start at the
// registered offsets relative to the current sc.width at call time.
// where, the WHERE of a query whose whole FROM is te, narrows a table.
func (ev *evaluator) tableRows(te sqlparser.TableExpr, sc *scope, parent *env, where sqlparser.Expr) ([]Row, error) {
	base := sc.width
	switch t := te.(type) {
	case *sqlparser.TableRef:
		td, ok := ev.db.table(t.Name)
		if !ok {
			return nil, fmt.Errorf("engine: no table %q", t.Name)
		}
		name := refName(t)
		sc.addTable(td.def, name, base)
		conds, _ := localConds(nil, where, td, name)
		pos, _, narrowed := ev.db.candidates(td, conds)
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
func outputColumns(sel *sqlparser.SelectStmt, sc *scope) []string {
	n := len(sel.Items)
	for _, it := range sel.Items {
		if it.Star {
			for _, e := range sc.entries {
				n += len(e.table.Columns)
			}
		}
	}
	cols := make([]string, 0, n)
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for _, e := range sc.entries {
				if it.Table == "" || strings.EqualFold(e.name, it.Table) {
					for _, c := range e.table.Columns {
						cols = append(cols, c.Name)
					}
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
				if strings.EqualFold(se.name, it.Table) {
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
		res, err := ev.execSelect(x.Subquery, en, &rowsOut{})
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
		res, err := ev.execSelect(x.Subquery, en, &rowsOut{})
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
		res, err := ev.execSelect(x.Subquery, en, &rowsOut{})
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
