package pgwire

import (
	"reflect"
	"testing"
)

// TestSplitStatements pins where a simple-Query buffer splits: on a
// top-level ';' only, never inside a string, a quoted identifier, a
// comment or a dollar-quoted string. A '$' followed by a digit is a
// parameter, as in the lexer, not a dollar tag. Empty segments drop,
// and an unterminated construct runs to the end of the buffer.
func TestSplitStatements(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"SELECT 1; SELECT 2", []string{"SELECT 1", "SELECT 2"}},
		{"SELECT 'a;b''c;d'; SELECT 2", []string{"SELECT 'a;b''c;d'", "SELECT 2"}},
		{`SELECT "a;b" FROM t; SELECT 2`, []string{`SELECT "a;b" FROM t`, "SELECT 2"}},
		{"SELECT `a;b` FROM t; SELECT 2", []string{"SELECT `a;b` FROM t", "SELECT 2"}},
		{"SELECT 1 -- a;b\n; SELECT 2", []string{"SELECT 1 -- a;b", "SELECT 2"}},
		{"SELECT 1 /* a;b */; SELECT 2", []string{"SELECT 1 /* a;b */", "SELECT 2"}},
		{"SELECT $$a;b$$; SELECT 2", []string{"SELECT $$a;b$$", "SELECT 2"}},
		{"SELECT $t$a;$$;b$t$; SELECT 2", []string{"SELECT $t$a;$$;b$t$", "SELECT 2"}},
		{"SELECT $é$a;b$é$; SELECT 2", []string{"SELECT $é$a;b$é$", "SELECT 2"}},
		{"SELECT a FROM t WHERE b = $1; SELECT 2", []string{"SELECT a FROM t WHERE b = $1", "SELECT 2"}},
		{"SELECT $1$a;b$1$", []string{"SELECT $1$a", "b$1$"}},
		{"; ;  SELECT 1;;\n", []string{"SELECT 1"}},
		{"", nil},
		{" ;\t; ", nil},
		{"SELECT 'unterminated; SELECT 2", []string{"SELECT 'unterminated; SELECT 2"}},
		{"SELECT 1 /* unterminated; SELECT 2", []string{"SELECT 1 /* unterminated; SELECT 2"}},
		{"SELECT $t$ unterminated; SELECT 2", []string{"SELECT $t$ unterminated; SELECT 2"}},
	}
	for _, c := range cases {
		if got := splitStatements(c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitStatements(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
