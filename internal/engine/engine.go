// Package engine implements an in-memory relational database engine:
// row storage with an ordered index per declared key, constraint
// checking, and an executor for the SQL subset produced by
// internal/sqlparser. It is the substrate the enforcement proxy
// forwards allowed queries to, standing in for the production DBMS a
// Blockaid-style deployment would use.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Row is one tuple, in declared column order for a stored row and in
// select-list order for a result row. It is a plain []sqlvalue.Value, so
// a result row reaches the trace and both wires as the engine built it,
// a streamed one (QueryEach) in a buffer reused for the next.
type Row = []sqlvalue.Value

// rowKey builds a key over every column of r: rows with equal keys are
// duplicates to DISTINCT and UNION.
func rowKey(r Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte(0)
	}
	return b.String()
}

// tableData is the storage for one table.
type tableData struct {
	def  *schema.Table
	rows []Row       // live rows; deletion keeps the survivors' order
	keys []*keyIndex // the primary key first, if any, then each UNIQUE key
	secs []*secIndex // the secondary indexes DeclareIndex declared
}

// keyIndex is the ordered index over one declared key: row positions
// sorted by key tuple (compareKey), each tuple kept beside its position
// so a search touches no row — a row probe cost a cache miss per step.
type keyIndex struct {
	cols []int            // key column positions
	pos  []int32          // row positions in key order
	keys []sqlvalue.Value // entry i's key tuple, len(cols) values from i*len(cols)
	what string           // "primary key" or "unique", for violation errors
}

// compareKey orders two values of one key column under sqlvalue.Less.
// A column holds one type after CoerceTo, so equality here is Key()
// equality: 2 and 2.0 collide, NULL duplicates NULL. Two REALs compare
// by cmp.Compare, which places NaN (first, equal to itself) as Key()
// does and Less cannot.
func compareKey(a, b *sqlvalue.Value) int {
	if t := sqlvalue.TypeOf(a); t == sqlvalue.TypeOf(b) {
		switch t {
		case sqlvalue.Int:
			return cmp.Compare(sqlvalue.IntOf(a), sqlvalue.IntOf(b))
		case sqlvalue.Real:
			return cmp.Compare(sqlvalue.RealOf(a), sqlvalue.RealOf(b))
		case sqlvalue.Text:
			return strings.Compare(sqlvalue.TextOf(a), sqlvalue.TextOf(b))
		}
	}
	switch {
	case sqlvalue.Less(*a, *b):
		return -1
	case sqlvalue.Less(*b, *a):
		return 1
	}
	return 0
}

// compareKeys orders key tuple k against vals, a prefix of a key tuple.
func compareKeys(k, vals []sqlvalue.Value) int {
	for i := range vals {
		if c := compareKey(&k[i], &vals[i]); c != 0 {
			return c
		}
	}
	return 0
}

// entry returns entry i's key tuple.
func (ix *keyIndex) entry(i int) []sqlvalue.Value {
	w := len(ix.cols)
	return ix.keys[i*w : i*w+w]
}

// seek returns the first entry in [lo, hi) whose key prefix is not below
// vals, or, with upper, the first above it; hi if there is none.
func (ix *keyIndex) seek(vals []sqlvalue.Value, upper bool, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := compareKeys(ix.entry(m), vals); c < 0 || c == 0 && upper {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// equal returns the entries [i, j) of [lo, hi) whose key prefix equals
// vals. The run is walked, not searched: the read visits it anyway.
func (ix *keyIndex) equal(vals []sqlvalue.Value, lo, hi int) (i, j int) {
	i = ix.seek(vals, false, lo, hi)
	for j = i; j < hi && compareKeys(ix.entry(j), vals) == 0; j++ {
	}
	return i, j
}

// find returns where the key vals belongs and whether a row holds it
// already. A key above every entry — an insert in key order — costs one
// comparison.
func (ix *keyIndex) find(vals []sqlvalue.Value) (int, bool) {
	n := len(ix.pos)
	if n == 0 || compareKeys(ix.entry(n-1), vals) < 0 {
		return n, false
	}
	i := ix.seek(vals, false, 0, n)
	return i, i < n && compareKeys(ix.entry(i), vals) == 0
}

// keyInto appends row r's key tuple over cols to buf. Callers pass a
// stack buffer: find only reads the tuple, and file copies what it keeps.
func keyInto(buf []sqlvalue.Value, cols []int, r Row) []sqlvalue.Value {
	for _, c := range cols {
		buf = append(buf, r[c])
	}
	return buf
}

// keyBuf is room for the key tuples of common keys without allocating.
type keyBuf [4]sqlvalue.Value

// file enters row position p, whose key is vals, in key order.
func (ix *keyIndex) file(vals []sqlvalue.Value, p int) {
	i, _ := ix.find(vals)
	ix.pos = slices.Insert(ix.pos, i, int32(p))
	ix.keys = slices.Insert(ix.keys, i*len(ix.cols), vals...)
}

func (ix *keyIndex) violation(t *schema.Table) error {
	return fmt.Errorf("engine: %s violation on %s", ix.what, t.Name)
}

// secIndex is a non-unique secondary index (DeclareIndex): row positions
// only, ordered by (key, position), each key read through the table's
// rows — a tuple beside each position would cost memory per row. The
// first read it serves builds it; once built, every write keeps it.
type secIndex struct {
	cols  []int
	pos   []int32
	once  sync.Once   // the build, run by a read under the read lock
	built atomic.Bool // read by writers, which skip an unbuilt index
}

// compare orders row r's key prefix against vals.
func (sx *secIndex) compare(r Row, vals []sqlvalue.Value) int {
	for i := range vals {
		if c := compareKey(&r[sx.cols[i]], &vals[i]); c != 0 {
			return c
		}
	}
	return 0
}

// seek returns the first entry in [lo, hi) not below (vals, p): with p
// -1 the first whose key prefix is vals or above, with p MaxInt32 the
// first above it.
func (sx *secIndex) seek(rows []Row, vals []sqlvalue.Value, p int32, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		e := sx.pos[m]
		if c := sx.compare(rows[e], vals); c < 0 || c == 0 && e < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// build sorts every row position by (key, position), once.
func (sx *secIndex) build(rows []Row, obs *engineObs) {
	sx.once.Do(func() {
		start := time.Now()
		pos := make([]int32, len(rows))
		for i := range pos {
			pos[i] = int32(i)
		}
		slices.SortFunc(pos, func(a, b int32) int {
			var kb keyBuf
			return cmp.Or(sx.compare(rows[a], keyInto(kb[:0], sx.cols, rows[b])), cmp.Compare(a, b))
		})
		sx.pos = pos
		sx.built.Store(true)
		if obs != nil {
			obs.builds.Inc()
			obs.build.ObserveSince(start)
		}
	})
}

// at returns where row position p, whose row is r, files in (key,
// position) order.
func (sx *secIndex) at(rows []Row, r Row, p int) int {
	var kb keyBuf
	return sx.seek(rows, keyInto(kb[:0], sx.cols, r), int32(p), 0, len(sx.pos))
}

// DB is an in-memory database over a fixed schema. It is safe for
// concurrent use; reads take a shared lock.
type DB struct {
	mu     sync.RWMutex
	schema *schema.Schema
	tables map[string]*tableData

	// obs holds the optional scan instruments (SetMetrics); an atomic
	// pointer so installing metrics never races with running queries.
	obs atomic.Pointer[engineObs]
}

// engineObs bundles the engine's instruments so they install
// atomically.
type engineObs struct {
	queries *obsv.Counter
	scan    *obsv.Histogram
	builds  *obsv.Counter
	build   *obsv.Histogram
}

// SetMetrics points the engine at an observability registry: every
// read (QueryCtx, QueryEach) counts into engine.queries and times its
// scan into engine.scan.micros, each secondary-index build (one read
// pays for it) into engine.index.builds and engine.index.build.micros.
// Safe to call at any time, including while queries run; a nil registry
// (or never calling this) keeps the zero-overhead path.
func (db *DB) SetMetrics(reg *obsv.Registry) {
	if reg == nil || !reg.Enabled() {
		db.obs.Store(nil)
		return
	}
	db.obs.Store(&engineObs{
		queries: reg.Counter("engine.queries"),
		scan:    reg.Histogram("engine.scan.micros"),
		builds:  reg.Counter("engine.index.builds"),
		build:   reg.Histogram("engine.index.build.micros"),
	})
}

// New creates an empty database for the schema.
func New(s *schema.Schema) *DB {
	db := &DB{schema: s, tables: make(map[string]*tableData)}
	for _, t := range s.Tables() {
		td := &tableData{def: t}
		if len(t.PrimaryKey) > 0 {
			td.keys = append(td.keys, &keyIndex{cols: columnPositions(t, t.PrimaryKey), what: "primary key"})
		}
		for _, uk := range t.UniqueKeys {
			td.keys = append(td.keys, &keyIndex{cols: columnPositions(t, uk), what: "unique"})
		}
		db.tables[strings.ToLower(t.Name)] = td
	}
	return db
}

func columnPositions(t *schema.Table, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := t.ColumnIndex(n)
		if !ok {
			panic(fmt.Sprintf("engine: unknown column %s.%s", t.Name, n))
		}
		out[i] = p
	}
	return out
}

// DeclareIndex declares a secondary index over the named columns of a
// table, in index order. A read whose equalities pin its leading
// columns builds it, once, and then tests only the rows of its range.
// Declaring an index the table has already is a no-op.
func (db *DB) DeclareIndex(table string, cols []string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		if pos[i], ok = td.def.ColumnIndex(c); !ok {
			return fmt.Errorf("engine: table %s has no column %q", td.def.Name, c)
		}
	}
	for _, sx := range td.secs {
		if slices.Equal(sx.cols, pos) {
			return nil
		}
	}
	td.secs = append(td.secs, &secIndex{cols: pos})
	return nil
}

// table finds a table by name in any letter case.
func (db *DB) table(name string) (*tableData, bool) {
	var buf [64]byte
	td, ok := db.tables[string(schema.AppendLower(buf[:0], name))]
	return td, ok
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.schema }

// RowCount returns the number of live rows in the table.
func (db *DB) RowCount(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, ok := db.table(table)
	if !ok {
		return 0
	}
	return len(td.rows)
}

// Result is the outcome of a SELECT.
type Result struct {
	Columns []string
	Rows    []Row
}

// Empty reports whether the result has no rows.
func (r *Result) Empty() bool { return len(r.Rows) == 0 }

// String renders the result as an aligned text table for debugging.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, " | "))
	b.WriteString("\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteString("\n")
	}
	return b.String()
}

// Exec parses and runs one statement with the given arguments.
// SELECTs return a Result; DML returns a Result with no columns and
// the affected-row count accessible via Affected.
func (db *DB) Exec(sql string, args sqlparser.Args) (*Result, int, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	return db.ExecStmt(stmt, args)
}

// ExecStmt runs a parsed statement.
func (db *DB) ExecStmt(stmt sqlparser.Statement, args sqlparser.Args) (*Result, int, error) {
	bound, err := sqlparser.Bind(stmt, args)
	if err != nil {
		return nil, 0, err
	}
	switch s := bound.(type) {
	case *sqlparser.SelectStmt:
		res, err := db.Query(s)
		return res, 0, err
	case *sqlparser.InsertStmt:
		n, err := db.Insert(s)
		return &Result{}, n, err
	case *sqlparser.UpdateStmt:
		n, err := db.Update(s)
		return &Result{}, n, err
	case *sqlparser.DeleteStmt:
		n, err := db.Delete(s)
		return &Result{}, n, err
	case *sqlparser.CreateTableStmt:
		return nil, 0, fmt.Errorf("engine: CREATE TABLE must go through schema construction")
	}
	return nil, 0, fmt.Errorf("engine: unsupported statement %T", bound)
}

// MustExec is Exec, panicking on error; for seed data in tests.
func (db *DB) MustExec(sql string, argVals ...any) {
	if _, _, err := db.Exec(sql, sqlparser.PositionalArgs(argVals...)); err != nil {
		panic(err)
	}
}

// Insert applies an INSERT statement whose parameters are already
// bound. It enforces NOT NULL, type coercion, PK/unique uniqueness,
// and foreign keys, all or nothing: a row that fails removes the rows
// the statement appended before it.
func (db *DB) Insert(ins *sqlparser.InsertStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(ins.Table)
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", ins.Table)
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = td.def.ColumnNames()
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		p, ok := td.def.ColumnIndex(c)
		if !ok {
			return 0, fmt.Errorf("engine: table %s has no column %q", td.def.Name, c)
		}
		pos[i] = p
	}
	start := len(td.rows)
	for _, exprRow := range ins.Rows {
		row, err := valuesRow(td, cols, pos, exprRow)
		if err == nil {
			err = db.insertRowLocked(td, row)
		}
		if err != nil {
			appended := make([]int32, len(td.rows)-start)
			for i := range appended {
				appended[i] = int32(start + i)
			}
			td.deleteRows(appended)
			return 0, err
		}
	}
	return len(ins.Rows), nil
}

// valuesRow evaluates one VALUES tuple into a stored row of td: the
// value for column cols[i] at pos[i], NULL in every column not named.
func valuesRow(td *tableData, cols []string, pos []int, exprRow []sqlparser.Expr) (Row, error) {
	if len(exprRow) != len(cols) {
		return nil, fmt.Errorf("engine: INSERT arity mismatch: %d values for %d columns", len(exprRow), len(cols))
	}
	row := make(Row, len(td.def.Columns))
	for i := range row {
		row[i] = sqlvalue.NewNull()
	}
	for i, e := range exprRow {
		v, err := constEval(e)
		if err != nil {
			return nil, err
		}
		if row[pos[i]], err = sqlvalue.CoerceTo(v, td.def.Columns[pos[i]].Type); err != nil {
			return nil, fmt.Errorf("engine: column %s.%s: %v", td.def.Name, cols[i], err)
		}
	}
	return row, nil
}

// InsertRow inserts one tuple given as Go values in declared column
// order, enforcing all constraints.
func (db *DB) InsertRow(table string, vals ...any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if len(vals) != len(td.def.Columns) {
		return fmt.Errorf("engine: InsertRow(%s): %d values for %d columns", table, len(vals), len(td.def.Columns))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		sv, err := sqlvalue.FromAny(v)
		if err != nil {
			return err
		}
		cv, err := sqlvalue.CoerceTo(sv, td.def.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("engine: column %s.%s: %v", table, td.def.Columns[i].Name, err)
		}
		row[i] = cv
	}
	return db.insertRowLocked(td, row)
}

func (db *DB) insertRowLocked(td *tableData, row Row) error {
	// NOT NULL.
	for i, c := range td.def.Columns {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("engine: NOT NULL violation on %s.%s", td.def.Name, c.Name)
		}
	}
	// PK and unique.
	var kb keyBuf
	for _, ix := range td.keys {
		if _, dup := ix.find(keyInto(kb[:0], ix.cols, row)); dup {
			return ix.violation(td.def)
		}
	}
	// Foreign keys.
	for _, fk := range td.def.ForeignKeys {
		if err := db.checkFKLocked(td.def, fk, row); err != nil {
			return err
		}
	}
	td.rows = append(td.rows, row)
	for _, ix := range td.keys {
		ix.file(keyInto(kb[:0], ix.cols, row), len(td.rows)-1)
	}
	for _, sx := range td.secs {
		if p := len(td.rows) - 1; sx.built.Load() {
			sx.pos = slices.Insert(sx.pos, sx.at(td.rows, row, p), int32(p))
		}
	}
	return nil
}

func (db *DB) checkFKLocked(t *schema.Table, fk schema.ForeignKey, row Row) error {
	vals := make([]sqlvalue.Value, len(fk.Columns))
	anyNull := false
	for i, c := range fk.Columns {
		p, _ := t.ColumnIndex(c)
		vals[i] = row[p]
		if vals[i].IsNull() {
			anyNull = true
		}
	}
	if anyNull {
		return nil // SQL FK semantics: NULL escapes the check
	}
	ref, _ := db.table(fk.RefTable)
	refPos := columnPositions(ref.def, fk.RefColumns)
	// Fast path: the referenced columns are one of the ref table's keys.
	for _, ix := range ref.keys {
		if slices.Equal(refPos, ix.cols) {
			if _, ok := ix.find(vals); ok {
				return nil
			}
			return fmt.Errorf("engine: FK violation: %s(%s) -> %s", t.Name, strings.Join(fk.Columns, ","), fk.RefTable)
		}
	}
	for _, rr := range ref.rows {
		match := true
		for i, p := range refPos {
			if !sqlvalue.Identical(rr[p], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return fmt.Errorf("engine: FK violation: %s(%s) -> %s", t.Name, strings.Join(fk.Columns, ","), fk.RefTable)
}

// Update applies an UPDATE whose parameters are bound, finding its rows
// as a read does (matchRows).
func (db *DB) Update(upd *sqlparser.UpdateStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(upd.Table)
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", upd.Table)
	}
	ev := &evaluator{db: db}
	var buf [8]int32
	pos, err := ev.matchRows(buf[:0], td, upd.Table, upd.Where)
	if err != nil {
		return 0, err
	}
	return db.updateRows(ev, td, upd, pos)
}

// updateRows applies upd's SET list to the rows at pos, ascending, all
// or nothing: the first row that fails restores every row changed
// before it, in reverse, and the statement reports 0 affected.
func (db *DB) updateRows(ev *evaluator, td *tableData, upd *sqlparser.UpdateStmt, pos []int32) (int, error) {
	var setBuf [8]int
	setPos := setBuf[:0]
	for _, a := range upd.Set {
		p, ok := td.def.ColumnIndex(a.Column)
		if !ok {
			return 0, fmt.Errorf("engine: table %s has no column %q", td.def.Name, a.Column)
		}
		setPos = append(setPos, p)
	}
	sc := newScope(nil)
	sc.addTable(td.def, upd.Table, 0)
	var oldBuf [8]Row
	olds := oldBuf[:0] // the row each changed position held before
	for _, p := range pos {
		old := td.rows[p]
		updated, err := ev.assigned(td, upd, setPos, sc, old)
		if err == nil {
			err = db.replaceRowLocked(td, int(p), updated, true)
		}
		if err != nil {
			// Each step back returns to a state that held, so none fails.
			for i := len(olds) - 1; i >= 0; i-- {
				if db.replaceRowLocked(td, int(pos[i]), olds[i], false) != nil {
					panic("engine: undoing an UPDATE failed")
				}
			}
			return 0, err
		}
		olds = append(olds, old)
	}
	return len(pos), nil
}

// assigned returns a copy of old with upd's SET list, whose columns sit
// at setPos, evaluated over old and coerced to the column types.
func (ev *evaluator) assigned(td *tableData, upd *sqlparser.UpdateStmt, setPos []int, sc *scope, old Row) (Row, error) {
	updated := slices.Clone(old)
	for i, a := range upd.Set {
		v, err := ev.eval(a.Value, sc, old)
		if err != nil {
			return nil, err
		}
		if updated[setPos[i]], err = sqlvalue.CoerceTo(v, td.def.Columns[setPos[i]].Type); err != nil {
			return nil, fmt.Errorf("engine: column %s.%s: %v", td.def.Name, a.Column, err)
		}
	}
	return updated, nil
}

// changed reports whether rows a and b differ on the columns cols.
func changed(cols []int, a, b Row) bool {
	for _, c := range cols {
		if compareKey(&a[c], &b[c]) != 0 {
			return true
		}
	}
	return false
}

// replaceRowLocked stores updated at row ri once every check has
// passed, re-filing each key it changes.
func (db *DB) replaceRowLocked(td *tableData, ri int, updated Row, checkFKs bool) error {
	old := td.rows[ri]
	for i, c := range td.def.Columns {
		if c.NotNull && updated[i].IsNull() {
			return fmt.Errorf("engine: NOT NULL violation on %s.%s", td.def.Name, c.Name)
		}
	}
	var kb keyBuf
	for _, ix := range td.keys {
		if changed(ix.cols, old, updated) {
			if _, dup := ix.find(keyInto(kb[:0], ix.cols, updated)); dup {
				return ix.violation(td.def)
			}
		}
	}
	for i := 0; checkFKs && i < len(td.def.ForeignKeys); i++ {
		if err := db.checkFKLocked(td.def, td.def.ForeignKeys[i], updated); err != nil {
			return err
		}
	}
	for _, ix := range td.keys {
		if changed(ix.cols, old, updated) {
			i, w := ix.seek(keyInto(kb[:0], ix.cols, old), false, 0, len(ix.pos)), len(ix.cols)
			ix.pos = slices.Delete(ix.pos, i, i+1)
			ix.keys = slices.Delete(ix.keys, i*w, i*w+w)
			ix.file(keyInto(kb[:0], ix.cols, updated), ri)
		}
	}
	for _, sx := range td.secs {
		if sx.built.Load() && changed(sx.cols, old, updated) {
			i := sx.at(td.rows, old, ri)
			sx.pos = slices.Delete(sx.pos, i, i+1)
			sx.pos = slices.Insert(sx.pos, sx.at(td.rows, updated, ri), int32(ri))
		}
	}
	td.rows[ri] = updated
	return nil
}

// Delete applies a DELETE whose parameters are bound, finding its rows
// as a read does (matchRows).
func (db *DB) Delete(del *sqlparser.DeleteStmt) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(del.Table)
	if !ok {
		return 0, fmt.Errorf("engine: no table %q", del.Table)
	}
	var buf [8]int32
	pos, err := (&evaluator{db: db}).matchRows(buf[:0], td, del.Table, del.Where)
	if err != nil {
		return 0, err
	}
	td.deleteRows(pos)
	return len(pos), nil
}

// deleteRows removes the rows at pos, ascending.
func (td *tableData) deleteRows(pos []int32) {
	if len(pos) == 0 {
		return
	}
	moved := make([]int32, len(td.rows)) // old position -> new, -1 if deleted
	n := 0
	for i, row := range td.rows {
		if len(pos) > 0 && int(pos[0]) == i {
			moved[i], pos = -1, pos[1:]
			continue
		}
		moved[i], td.rows[n] = int32(n), row
		n++
	}
	clear(td.rows[n:])
	td.rows = td.rows[:n]
	// Survivors keep their order, so renumbered indexes stay sorted.
	for _, ix := range td.keys {
		pos, keys := ix.pos[:0], ix.keys[:0]
		for i, p := range ix.pos {
			if q := moved[p]; q >= 0 {
				pos, keys = append(pos, q), append(keys, ix.entry(i)...)
			}
		}
		ix.pos, ix.keys = pos, keys
	}
	for _, sx := range td.secs {
		pos := sx.pos[:0]
		for _, p := range sx.pos {
			if q := moved[p]; q >= 0 {
				pos = append(pos, q)
			}
		}
		sx.pos = pos
	}
}

// Snapshot returns a deep copy of all rows of the table, for test
// assertions and the extractor's mutation probing.
func (db *DB) Snapshot(table string) []Row {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, ok := db.table(table)
	if !ok {
		return nil
	}
	out := make([]Row, len(td.rows))
	for i, r := range td.rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// Clone returns an independent copy of the whole database (same
// schema object, copied rows, the same indexes declared — a secondary
// one unbuilt, as a read may be building it in db). Used by mutation
// probing and the counterexample search.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := New(db.schema)
	for name, td := range db.tables {
		otd := out.tables[name]
		otd.rows = make([]Row, len(td.rows))
		for i, r := range td.rows {
			otd.rows[i] = slices.Clone(r)
		}
		for i, ix := range td.keys {
			otd.keys[i].pos, otd.keys[i].keys = slices.Clone(ix.pos), slices.Clone(ix.keys)
		}
		for _, sx := range td.secs {
			otd.secs = append(otd.secs, &secIndex{cols: sx.cols})
		}
	}
	return out
}

// ContentHash returns an order-independent FNV-1a digest of the full
// database contents (table names and row values). The durable WAL
// stamps it into policy snapshots so crash recovery can warn when the
// database a restored session's history was observed against is not
// the database the proxy now serves. Rows hash independently and are
// combined by addition, so physical row order (which insertion and
// deletion reshuffle) does not affect the digest.
func (db *DB) ContentHash() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hashStr := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		return h
	}
	var sum uint64 = offset64
	for _, n := range names {
		td := db.tables[n]
		sum = hashStr(sum, n)
		sum = hashStr(sum, "\x00")
		var rows uint64
		for _, r := range td.rows {
			h := uint64(offset64)
			for _, v := range r {
				h = hashStr(h, v.Key())
				h = hashStr(h, "\x1f")
			}
			rows += h
		}
		sum ^= rows
		sum *= prime64
	}
	return sum
}

// SetCell overwrites one cell identified by table, row position, and
// column name, bypassing FK checks (mutation probing needs arbitrary
// perturbations). Uniqueness and NOT NULL are still enforced.
func (db *DB) SetCell(table string, rowIdx int, column string, val any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, ok := db.table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if rowIdx < 0 || rowIdx >= len(td.rows) {
		return fmt.Errorf("engine: row %d out of range for %s", rowIdx, table)
	}
	p, ok := td.def.ColumnIndex(column)
	if !ok {
		return fmt.Errorf("engine: table %s has no column %q", table, column)
	}
	sv, err := sqlvalue.FromAny(val)
	if err != nil {
		return err
	}
	cv, err := sqlvalue.CoerceTo(sv, td.def.Columns[p].Type)
	if err != nil {
		return err
	}
	updated := slices.Clone(td.rows[rowIdx])
	updated[p] = cv
	return db.replaceRowLocked(td, rowIdx, updated, false)
}

// Tables returns the table names sorted, for deterministic iteration.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, td := range db.tables {
		out = append(out, td.def.Name)
	}
	sort.Strings(out)
	return out
}

// constEval evaluates an expression with no column references (INSERT
// values after binding).
func constEval(e sqlparser.Expr) (sqlvalue.Value, error) {
	ev := &evaluator{}
	return ev.eval(e, newScope(nil), nil)
}
