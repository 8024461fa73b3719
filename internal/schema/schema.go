// Package schema describes relational schemas: tables, typed columns,
// primary and unique keys, and foreign keys. Every other subsystem —
// the engine, the compliance checker, the extractor, and the
// disclosure auditor — resolves column references against a Schema.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/sqlvalue"
)

// Column is one typed column of a table.
type Column struct {
	Name    string
	Type    sqlvalue.Type
	NotNull bool
	// Opaque marks the column as an opaque identifier (§3.2.2 of the
	// paper): concrete values of this column must never appear in an
	// extracted policy, which forces the extractor to generalize them.
	Opaque bool
}

// ForeignKey declares that Columns of this table reference
// RefColumns of RefTable.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Table is a named relation.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string // column names; may be empty
	UniqueKeys  [][]string
	ForeignKeys []ForeignKey

	colIndex map[string]int
}

// Schema is a set of tables. The zero value is an empty schema ready
// for AddTable.
type Schema struct {
	tables map[string]*Table
	order  []string // insertion order for deterministic iteration
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable validates t and adds it to the schema. Table and column
// name lookups are case-insensitive; the declared spelling is kept for
// display.
func (s *Schema) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		ck := strings.ToLower(c.Name)
		if ck == "" {
			return fmt.Errorf("schema: table %q has a column with empty name", t.Name)
		}
		if _, dup := t.colIndex[ck]; dup {
			return fmt.Errorf("schema: table %q has duplicate column %q", t.Name, c.Name)
		}
		t.colIndex[ck] = i
	}
	check := func(cols []string, what string) error {
		if len(cols) == 0 {
			return fmt.Errorf("schema: table %q has empty %s", t.Name, what)
		}
		for _, c := range cols {
			if _, ok := t.colIndex[strings.ToLower(c)]; !ok {
				return fmt.Errorf("schema: table %q %s references unknown column %q", t.Name, what, c)
			}
		}
		return nil
	}
	if len(t.PrimaryKey) > 0 {
		if err := check(t.PrimaryKey, "primary key"); err != nil {
			return err
		}
	}
	for _, uk := range t.UniqueKeys {
		if err := check(uk, "unique key"); err != nil {
			return err
		}
	}
	for _, fk := range t.ForeignKeys {
		if err := check(fk.Columns, "foreign key"); err != nil {
			return err
		}
		if len(fk.Columns) != len(fk.RefColumns) {
			return fmt.Errorf("schema: table %q foreign key arity mismatch", t.Name)
		}
	}
	s.tables[key] = t
	s.order = append(s.order, key)
	return nil
}

// Table returns the table by (case-insensitive) name.
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// AppendLower appends name as strings.ToLower returns it. Table and
// column lookups fold names into a stack buffer this way, so resolving
// a name allocates nothing.
func AppendLower(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			return append(buf, strings.ToLower(name)...)
		}
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// MustTable is Table, panicking when absent. For seed code and tests.
func (s *Schema) MustTable(name string) *Table {
	t, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("schema: no table %q", name))
	}
	return t
}

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k])
	}
	return out
}

// Validate cross-checks foreign keys now that all tables are present.
func (s *Schema) Validate() error {
	for _, t := range s.Tables() {
		for _, fk := range t.ForeignKeys {
			ref, ok := s.Table(fk.RefTable)
			if !ok {
				return fmt.Errorf("schema: table %q references unknown table %q", t.Name, fk.RefTable)
			}
			for i, rc := range fk.RefColumns {
				ri, ok := ref.ColumnIndex(rc)
				if !ok {
					return fmt.Errorf("schema: table %q FK references unknown column %s.%s", t.Name, fk.RefTable, rc)
				}
				ci, _ := t.ColumnIndex(fk.Columns[i])
				if t.Columns[ci].Type != ref.Columns[ri].Type {
					return fmt.Errorf("schema: FK type mismatch %s.%s (%s) vs %s.%s (%s)",
						t.Name, fk.Columns[i], t.Columns[ci].Type, ref.Name, rc, ref.Columns[ri].Type)
				}
			}
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column.
func (t *Table) ColumnIndex(name string) (int, bool) {
	if t.colIndex == nil {
		for i, c := range t.Columns {
			if strings.EqualFold(c.Name, name) {
				return i, true
			}
		}
		return 0, false
	}
	var buf [64]byte
	i, ok := t.colIndex[string(AppendLower(buf[:0], name))]
	return i, ok
}

// Column returns the named column.
func (t *Table) Column(name string) (Column, bool) {
	i, ok := t.ColumnIndex(name)
	if !ok {
		return Column{}, false
	}
	return t.Columns[i], true
}

// ColumnNames returns the declared column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// IsKey reports whether the given set of columns contains a primary or
// unique key of the table (so a match on them identifies at most one
// row). Column names are case-insensitive.
func (t *Table) IsKey(cols []string) bool {
	have := make(map[string]bool, len(cols))
	for _, c := range cols {
		have[strings.ToLower(c)] = true
	}
	covers := func(key []string) bool {
		if len(key) == 0 {
			return false
		}
		for _, k := range key {
			if !have[strings.ToLower(k)] {
				return false
			}
		}
		return true
	}
	if covers(t.PrimaryKey) {
		return true
	}
	for _, uk := range t.UniqueKeys {
		if covers(uk) {
			return true
		}
	}
	return false
}

// String renders the schema as CREATE TABLE statements, sorted by
// table name, for debugging and golden tests.
func (s *Schema) String() string {
	tables := s.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// String renders the table as a CREATE TABLE statement.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", t.Name)
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	if len(t.PrimaryKey) > 0 {
		fmt.Fprintf(&b, ", PRIMARY KEY (%s)", strings.Join(t.PrimaryKey, ", "))
	}
	for _, uk := range t.UniqueKeys {
		fmt.Fprintf(&b, ", UNIQUE (%s)", strings.Join(uk, ", "))
	}
	for _, fk := range t.ForeignKeys {
		fmt.Fprintf(&b, ", FOREIGN KEY (%s) REFERENCES %s (%s)",
			strings.Join(fk.Columns, ", "), fk.RefTable, strings.Join(fk.RefColumns, ", "))
	}
	b.WriteString(");")
	return b.String()
}

// Builder offers a fluent way to declare tables in Go code.
type Builder struct {
	s   *Schema
	err error
}

// NewBuilder returns a Builder over a fresh schema.
func NewBuilder() *Builder { return &Builder{s: New()} }

// TableBuilder accumulates one table.
type TableBuilder struct {
	b *Builder
	t *Table
}

// Table starts a new table declaration.
func (b *Builder) Table(name string) *TableBuilder {
	return &TableBuilder{b: b, t: &Table{Name: name}}
}

// Col adds a nullable column.
func (tb *TableBuilder) Col(name string, typ sqlvalue.Type) *TableBuilder {
	tb.t.Columns = append(tb.t.Columns, Column{Name: name, Type: typ})
	return tb
}

// NotNullCol adds a NOT NULL column.
func (tb *TableBuilder) NotNullCol(name string, typ sqlvalue.Type) *TableBuilder {
	tb.t.Columns = append(tb.t.Columns, Column{Name: name, Type: typ, NotNull: true})
	return tb
}

// OpaqueCol adds a NOT NULL column flagged as an opaque identifier.
func (tb *TableBuilder) OpaqueCol(name string, typ sqlvalue.Type) *TableBuilder {
	tb.t.Columns = append(tb.t.Columns, Column{Name: name, Type: typ, NotNull: true, Opaque: true})
	return tb
}

// PK sets the primary key.
func (tb *TableBuilder) PK(cols ...string) *TableBuilder {
	tb.t.PrimaryKey = cols
	return tb
}

// Unique adds a unique key.
func (tb *TableBuilder) Unique(cols ...string) *TableBuilder {
	tb.t.UniqueKeys = append(tb.t.UniqueKeys, cols)
	return tb
}

// FK adds a foreign key.
func (tb *TableBuilder) FK(cols []string, refTable string, refCols []string) *TableBuilder {
	tb.t.ForeignKeys = append(tb.t.ForeignKeys, ForeignKey{Columns: cols, RefTable: refTable, RefColumns: refCols})
	return tb
}

// Done finishes the table and returns to the schema builder.
func (tb *TableBuilder) Done() *Builder {
	if tb.b.err == nil {
		tb.b.err = tb.b.s.AddTable(tb.t)
	}
	return tb.b
}

// Build validates and returns the schema.
func (b *Builder) Build() (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.s.Validate(); err != nil {
		return nil, err
	}
	return b.s, nil
}

// MustBuild is Build, panicking on error.
func (b *Builder) MustBuild() *Schema {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}
