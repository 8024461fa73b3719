package sqlparser

import (
	"testing"

	"repro/internal/sqlvalue"
)

func TestNormalizeParams(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		// Bare ? becomes sequential $N.
		{"SELECT a FROM t WHERE b = ?", "SELECT a FROM t WHERE b = $1"},
		{"SELECT a FROM t WHERE b = ? AND c = ?", "SELECT a FROM t WHERE b = $1 AND c = $2"},
		// :name becomes the native ?name form.
		{"SELECT a FROM t WHERE b = :uid", "SELECT a FROM t WHERE b = ?uid"},
		// Already canonical: returned unchanged.
		{"SELECT a FROM t WHERE b = $1", "SELECT a FROM t WHERE b = $1"},
		{"SELECT a FROM t WHERE b = ?uid", "SELECT a FROM t WHERE b = ?uid"},
		{"SELECT a FROM t", "SELECT a FROM t"},
		// $N does not advance the bare-? counter (parser numbers them
		// independently).
		{"SELECT a FROM t WHERE b = $2 AND c = ?", "SELECT a FROM t WHERE b = $2 AND c = $1"},
		// Placeholder bytes inside strings, identifiers and comments are
		// data, not placeholders.
		{"SELECT '?' FROM t WHERE a = ?", "SELECT '?' FROM t WHERE a = $1"},
		{"SELECT 'it''s ?' FROM t WHERE a = ?", "SELECT 'it''s ?' FROM t WHERE a = $1"},
		{`SELECT "?" FROM t WHERE a = ?`, `SELECT "?" FROM t WHERE a = $1`},
		{"SELECT a FROM t -- ? :x $1\nWHERE b = ?", "SELECT a FROM t -- ? :x $1\nWHERE b = $1"},
		{"SELECT a /* ? :x */ FROM t WHERE b = ?", "SELECT a /* ? :x */ FROM t WHERE b = $1"},
		{"SELECT $tag$? :x$tag$ FROM t WHERE a = ?", "SELECT $tag$? :x$tag$ FROM t WHERE a = $1"},
		{"SELECT $$? :x$$ FROM t WHERE a = ?", "SELECT $$? :x$$ FROM t WHERE a = $1"},
		// :: is the cast operator; the type name after it is not :name.
		{"SELECT a::text FROM t WHERE b = ?", "SELECT a::text FROM t WHERE b = $1"},
		// Unterminated constructs bail out unchanged; the parser reports
		// the real error.
		{"SELECT 'unterminated", "SELECT 'unterminated"},
		{"SELECT /* unterminated", "SELECT /* unterminated"},
		{"SELECT $tag$ unterminated", "SELECT $tag$ unterminated"},
	}
	for _, c := range cases {
		if got := NormalizeParams(c.in); got != c.want {
			t.Errorf("NormalizeParams(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeParamsNoAlloc pins that already-canonical statements
// come back as the identical string (no copy).
func TestNormalizeParamsNoAlloc(t *testing.T) {
	src := "SELECT a FROM t WHERE b = $1 AND c = ?uid"
	if got := NormalizeParams(src); got != src {
		t.Fatalf("canonical input rewritten: %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = NormalizeParams(src)
	})
	if allocs != 0 {
		t.Fatalf("NormalizeParams allocates %v per canonical call, want 0", allocs)
	}
}

// TestNormalizeMatchesParser asserts the load-bearing property: for a
// statement mixing styles, parsing the normalized text yields the same
// parameter indices the parser assigns to the raw text. The decision
// caches key on the shared parsed statement, so a disagreement here
// would silently bind arguments to the wrong positions.
func TestNormalizeMatchesParser(t *testing.T) {
	srcs := []string{
		"SELECT a FROM t WHERE b = ? AND c = ?",
		"SELECT a FROM t WHERE b = $2 AND c = ?",
		"SELECT a FROM t WHERE b = $1 AND c = $1",
		"SELECT a FROM t WHERE b = ?uid AND c = ?",
	}
	for _, src := range srcs {
		raw, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		norm, err := Parse(NormalizeParams(src))
		if err != nil {
			t.Fatalf("Parse(NormalizeParams(%q)=%q): %v", src, NormalizeParams(src), err)
		}
		rp, np := Params(raw), Params(norm)
		if len(rp) != len(np) {
			t.Fatalf("%q: param count raw %d vs normalized %d", src, len(rp), len(np))
		}
		for i := range rp {
			if rp[i].Name != np[i].Name || rp[i].Index != np[i].Index {
				t.Errorf("%q param %d: raw {%q %d} vs normalized {%q %d}",
					src, i, rp[i].Name, rp[i].Index, np[i].Name, np[i].Index)
			}
		}
	}
}

func TestParseDollarPlaceholders(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = $2 AND c = $1 AND d = $2")
	if err != nil {
		t.Fatal(err)
	}
	ps := Params(stmt)
	if len(ps) != 3 {
		t.Fatalf("got %d params, want 3", len(ps))
	}
	wantIdx := []int{1, 0, 1}
	for i, p := range ps {
		if p.Index != wantIdx[i] || !p.Explicit || p.Name != "" {
			t.Errorf("param %d = {Name:%q Index:%d Explicit:%v}, want index %d explicit",
				i, p.Name, p.Index, p.Explicit, wantIdx[i])
		}
	}
	// Printing preserves the explicit indices.
	if got := stmt.SQL(); got != "SELECT a FROM t WHERE b = $2 AND c = $1 AND d = $2" {
		t.Errorf("SQL() = %q", got)
	}
	// Binding maps by index, so $2/$1/$2 reuse the two values.
	bound, err := Bind(stmt, Args{Positional: []sqlvalue.Value{
		sqlvalue.NewInt(10), sqlvalue.NewInt(20),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.SQL(); got != "SELECT a FROM t WHERE b = 20 AND c = 10 AND d = 20" {
		t.Errorf("bound SQL = %q", got)
	}
}

func TestParseDollarErrors(t *testing.T) {
	if _, err := Parse("SELECT a FROM t WHERE b = $0"); err == nil {
		t.Error("accepted $0")
	}
	if _, err := Parse("SELECT $tag$never closed"); err == nil {
		t.Error("accepted unterminated dollar-quoted string")
	}
}

func TestParseDollarQuotedString(t *testing.T) {
	stmt, err := Parse("SELECT $tag$it's got 'quotes' and $1$tag$ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	lit, ok := sel.Items[0].Expr.(*Literal)
	if !ok {
		t.Fatalf("item is %T, want *Literal", sel.Items[0].Expr)
	}
	if got := lit.Value.Text(); got != "it's got 'quotes' and $1" {
		t.Errorf("literal = %q", got)
	}
	// Anonymous $$...$$ form.
	stmt, err = Parse("SELECT $$plain$$ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	lit = stmt.(*SelectStmt).Items[0].Expr.(*Literal)
	if got := lit.Value.Text(); got != "plain" {
		t.Errorf("literal = %q", got)
	}
}

func TestParseCasts(t *testing.T) {
	// Casts parse and are discarded: the engine is dynamically typed and
	// the checker reasons over untyped constraint queries.
	for _, src := range []string{
		"SELECT a::text FROM t",
		"SELECT a FROM t WHERE b = $1::int8",
		"SELECT b::numeric(10, 2) FROM t",
		"SELECT (a + 1)::int FROM t WHERE c = ?::text",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	stmt, err := Parse("SELECT a::text FROM t WHERE b = $1::int8")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.SQL(); got != "SELECT a FROM t WHERE b = $1" {
		t.Errorf("cast not discarded: %q", got)
	}
	if _, err := Parse("SELECT a:: FROM t"); err == nil {
		t.Error("accepted cast with no type name")
	}
}

// TestParseNormSharesStatement pins the cross-surface cache-keying
// contract: the same logical statement in different placeholder styles
// resolves to the SAME shared Statement pointer, which is what keys
// the checker's statement plans.
func TestParseNormSharesStatement(t *testing.T) {
	variants := []string{
		"SELECT EId FROM Attendance WHERE UId = ? AND EId = ?",
		"SELECT EId FROM Attendance WHERE UId = $1 AND EId = $2",
		"SELECT EId FROM Attendance WHERE UId = :p1 AND EId = :p2",
	}
	a, err := ParseNorm(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseNorm(variants[1])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("? and $N variants parsed to distinct statements: %p vs %p", a, b)
	}
	// The :name variant normalizes to ?name — different canonical text
	// (named vs positional), so it must NOT alias to the positional one.
	c, err := ParseNorm(variants[2])
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error(":name variant aliased to positional statement")
	}
	// Second lookup of each raw text hits the alias entry directly.
	a2, err := ParseNorm(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Error("repeat ParseNorm returned a different pointer")
	}
	sel, err := ParseSelectNorm(variants[1])
	if err != nil {
		t.Fatal(err)
	}
	if Statement(sel) != a {
		t.Error("ParseSelectNorm did not share the cached statement")
	}
}

func TestNumPositionalParams(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"SELECT a FROM t WHERE b = ? AND c = ?", 2},
		{"SELECT a FROM t WHERE b = $2", 2},
		{"SELECT a FROM t WHERE b = $1 AND c = $1", 1},
		{"SELECT a FROM t WHERE b = ?uid", 0},
		{"SELECT a FROM t", 0},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := NumPositionalParams(stmt); got != c.want {
			t.Errorf("NumPositionalParams(%q) = %d, want %d", c.src, got, c.want)
		}
		wantNamed := c.src == "SELECT a FROM t WHERE b = ?uid"
		if got := HasNamedParams(stmt); got != wantNamed {
			t.Errorf("HasNamedParams(%q) = %v, want %v", c.src, got, wantNamed)
		}
	}
}
