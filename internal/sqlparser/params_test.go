package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlvalue"
)

// TestLexPlaceholders pins the one placeholder rule, the lexer's: the
// spellings it reads as parameters, the bytes it reads as data
// (strings, comments, dollar quotes), `::` as the cast, and the
// spellings it refuses. Each parameter renders as ?name (named, both
// ?name and :name), $N (explicit index) or #N (sequential ?).
func TestLexPlaceholders(t *testing.T) {
	cases := []struct {
		src  string
		want string // the parameters in source order; "error": rejected
	}{
		{"SELECT a FROM t WHERE b = :uid", "?uid"},
		{"SELECT a FROM t WHERE b = ?uid", "?uid"},
		{"SELECT a FROM t WHERE b = :_x1 AND c = ?_x1", "?_x1 ?_x1"},
		{"SELECT a FROM t WHERE b = ? AND c = ?", "#1 #2"},
		// $N does not advance the sequential counter.
		{"SELECT a FROM t WHERE b = $2 AND c = ?", "$2 #1"},
		{"SELECT a FROM t WHERE b = :b AND c = ? AND d = $1", "?b #1 $1"},
		// Placeholder bytes inside strings, comments and dollar quotes
		// are data.
		{"SELECT '?' FROM t WHERE a = :x", "?x"},
		{"SELECT 'it''s :y ?' FROM t WHERE a = ?", "#1"},
		{"SELECT a FROM t -- ? :x $1\nWHERE b = :b", "?b"},
		{"SELECT a /* ? :x */ FROM t WHERE b = ?", "#1"},
		{"SELECT $tag$? :x$tag$ FROM t WHERE a = :a", "?a"},
		{"SELECT $$? :x$$ FROM t WHERE a = ?", "#1"},
		// :: is the cast; the type name after it is not a parameter.
		{"SELECT a::text FROM t WHERE b = :b::int8", "?b"},
		// A name starts as an identifier does; a lone ':' is no token.
		{"SELECT a FROM t WHERE b = :1", "error"},
		{"SELECT a FROM t WHERE b = : b", "error"},
		{"SELECT a FROM t WHERE b = :", "error"},
		{"SELECT 'unterminated :x", "error"},
		{"SELECT a FROM t WHERE b = :x /* unterminated", "error"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			if c.want != "error" {
				t.Errorf("Parse(%q): %v", c.src, err)
			}
			continue
		}
		var got []string
		for _, p := range Params(stmt) {
			switch {
			case p.Name != "":
				got = append(got, "?"+p.Name)
			case p.Explicit:
				got = append(got, fmt.Sprintf("$%d", p.Index+1))
			default:
				got = append(got, fmt.Sprintf("#%d", p.Index+1))
			}
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("Parse(%q) params = %q, want %q", c.src, g, c.want)
		}
	}
	// :name and ?name are one token: the statements render alike.
	a := MustParse("SELECT a FROM t WHERE b = :uid AND c = ?")
	b := MustParse("SELECT a FROM t WHERE b = ?uid AND c = ?")
	if a.SQL() != b.SQL() {
		t.Errorf(":name renders %q, ?name %q", a.SQL(), b.SQL())
	}
}

// TestNormalizeParams pins the parser's rendering as the one normal
// form of every placeholder spelling: `:name` and `?name` print as
// ?name, bare `?` stays sequential, `$N` keeps its index, and
// placeholder bytes inside strings, comments and dollar quotes stay
// data. The normal form is a fixed point: parsing it renders it again.
func TestNormalizeParams(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"SELECT a FROM t WHERE b = ?", "SELECT a FROM t WHERE b = ?"},
		{"SELECT a FROM t WHERE b = ? AND c = ?", "SELECT a FROM t WHERE b = ? AND c = ?"},
		{"SELECT a FROM t WHERE b = :uid", "SELECT a FROM t WHERE b = ?uid"},
		{"SELECT a FROM t WHERE b = ?uid", "SELECT a FROM t WHERE b = ?uid"},
		{"SELECT a FROM t WHERE b = $1", "SELECT a FROM t WHERE b = $1"},
		{"SELECT a FROM t WHERE b = $2 AND c = ?", "SELECT a FROM t WHERE b = $2 AND c = ?"},
		{"SELECT a FROM t", "SELECT a FROM t"},
		{"SELECT '?' FROM t WHERE a = :x", "SELECT '?' FROM t WHERE a = ?x"},
		{"SELECT a FROM t -- ? :x $1\nWHERE b = :b", "SELECT a FROM t WHERE b = ?b"},
		{"SELECT a /* ? :x */ FROM t WHERE b = ?", "SELECT a FROM t WHERE b = ?"},
		{"SELECT $tag$? :x$tag$ FROM t WHERE a = :a", "SELECT '? :x' FROM t WHERE a = ?a"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := stmt.SQL(); got != c.want {
			t.Errorf("Parse(%q).SQL() = %q, want %q", c.in, got, c.want)
			continue
		}
		again, err := Parse(c.want)
		if err != nil {
			t.Errorf("Parse(%q) of the normal form: %v", c.want, err)
			continue
		}
		if got := again.SQL(); got != c.want {
			t.Errorf("normal form %q renders again as %q", c.want, got)
		}
	}
}

// TestNormalizeMatchesParser asserts the load-bearing property of the
// parse cache: for statements mixing placeholder styles, the shared
// statement ParseNorm returns, the uncached parse of the raw text and
// the parse of its rendered normal form assign the same parameter
// names, indices and explicitness. A disagreement would bind arguments
// to the wrong positions.
func TestNormalizeMatchesParser(t *testing.T) {
	srcs := []string{
		"SELECT a FROM t WHERE b = ? AND c = ?",
		"SELECT a FROM t WHERE b = $2 AND c = ?",
		"SELECT a FROM t WHERE b = $1 AND c = $1",
		"SELECT a FROM t WHERE b = ?uid AND c = ?",
		"SELECT a FROM t WHERE b = :uid AND c = ? AND d = $1",
	}
	for _, src := range srcs {
		raw, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		cached, err := ParseNorm(src)
		if err != nil {
			t.Fatalf("ParseNorm(%q): %v", src, err)
		}
		norm, err := Parse(raw.SQL())
		if err != nil {
			t.Fatalf("Parse(%q) of the normal form: %v", raw.SQL(), err)
		}
		rp := Params(raw)
		for name, other := range map[string]Statement{"ParseNorm": cached, "normal form": norm} {
			op := Params(other)
			if len(rp) != len(op) {
				t.Fatalf("%q: param count raw %d vs %s %d", src, len(rp), name, len(op))
			}
			for i := range rp {
				if rp[i].Name != op[i].Name || rp[i].Index != op[i].Index || rp[i].Explicit != op[i].Explicit {
					t.Errorf("%q param %d: raw {%q %d %v} vs %s {%q %d %v}", src, i,
						rp[i].Name, rp[i].Index, rp[i].Explicit, name, op[i].Name, op[i].Index, op[i].Explicit)
				}
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

func TestNumPositionalParams(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"SELECT a FROM t WHERE b = ? AND c = ?", 2},
		{"SELECT a FROM t WHERE b = $2", 2},
		{"SELECT a FROM t WHERE b = $1 AND c = $1", 1},
		{"SELECT a FROM t WHERE b = ?uid", 0},
		{"SELECT a FROM t WHERE b = :uid AND c = ?", 1},
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
	}
}

// TestNeedsResolve: Resolve fills a named value the arguments lack from
// the defaults, lets the arguments' own value win, reports a value
// still missing as Bind's *NoValueError, and hands back arguments that
// need nothing filled without allocating.
func TestNeedsResolve(t *testing.T) {
	defaults := map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}
	_, needs, err := ParseNeeds("SELECT a FROM t WHERE b = :uid AND c = ? AND d = ?uid")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(needs) != "{1 [uid]}" {
		t.Fatalf("needs = %v, want {1 [uid]}", needs)
	}
	args, err := needs.Resolve(PositionalArgs(1), defaults)
	if err != nil || args.Named["uid"].Int() != 7 {
		t.Errorf("Resolve from defaults: %v, %v; want uid 7", args, err)
	}
	own := Args{Positional: PositionalArgs(1).Positional, Named: map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(2)}}
	if args, err := needs.Resolve(own, defaults); err != nil || args.Named["uid"].Int() != 2 {
		t.Errorf("Resolve with the call's own uid: %v, %v; want uid 2", args, err)
	}
	for _, c := range []struct {
		args     Args
		defaults map[string]sqlvalue.Value
		want     string
	}{
		{NoArgs, defaults, "sql: no value for positional parameter #1"},
		{PositionalArgs(1), nil, "sql: no value for named parameter ?uid"},
	} {
		_, err := needs.Resolve(c.args, c.defaults)
		if _, ok := err.(*NoValueError); !ok || err.Error() != c.want {
			t.Errorf("Resolve(%v, %v) = %v, want %q", c.args, c.defaults, err, c.want)
		}
	}

	_, positional, _ := ParseNeeds("SELECT a FROM t WHERE b = ? AND c = $2")
	in := PositionalArgs(1, 2)
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = ParseNeeds("SELECT a FROM t WHERE b = ? AND c = $2")
		if _, err := positional.Resolve(in, defaults); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a cached parse and Resolve of positional args: %v allocs, want 0", n)
	}
}
