package sqlparser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokParam  // ? or ?Name
	tokSymbol // punctuation and operators
)

// token is one lexed token.
type token struct {
	kind tokenKind
	text string // keyword text upper-cased; param text excludes '?'
	pos  int    // byte offset in input
}

// keywords recognized by the lexer. Identifiers matching these
// (case-insensitively) become tokKeyword with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "JOIN": true, "INNER": true, "LEFT": true,
	"OUTER": true, "ON": true, "GROUP": true, "BY": true, "HAVING": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"DISTINCT": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "PRIMARY": true, "KEY": true, "UNIQUE": true,
	"FOREIGN": true, "REFERENCES": true, "NULL": true, "TRUE": true,
	"FALSE": true, "IS": true, "IN": true, "LIKE": true, "BETWEEN": true,
	"EXISTS": true, "UNION": true, "ALL": true, "CROSS": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql:%d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf(l.pos, "unterminated block comment")
			}
			l.pos += 2 + end + 2
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	switch {
	case c == '\'': // string literal with '' escaping
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start}, nil

	case c == '?': // parameter
		l.pos++
		n := l.pos
		for n < len(l.src) && (isIdentChar(l.src[n]) || l.src[n] == '_') {
			n++
		}
		name := l.src[l.pos:n]
		l.pos = n
		return token{kind: tokParam, text: name, pos: start}, nil

	case c == '$': // $N placeholder or $tag$...$tag$ dollar-quoted string
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			n := l.pos + 1
			for n < len(l.src) && l.src[n] >= '0' && l.src[n] <= '9' {
				n++
			}
			// Keep the '$' prefix so the parser can tell an explicit
			// Postgres-style index from a ?name named parameter.
			text := l.src[l.pos:n]
			l.pos = n
			return token{kind: tokParam, text: text, pos: start}, nil
		}
		// Dollar quoting: $$body$$ or $tag$body$tag$. The tag is
		// identifier-like (it cannot start with a digit — that case is
		// the placeholder above).
		n := l.pos + 1
		for n < len(l.src) && isIdentChar(l.src[n]) {
			n++
		}
		if n < len(l.src) && l.src[n] == '$' {
			delim := l.src[l.pos : n+1]
			bodyStart := n + 1
			end := strings.Index(l.src[bodyStart:], delim)
			if end < 0 {
				return token{}, l.errf(start, "unterminated dollar-quoted string")
			}
			l.pos = bodyStart + end + len(delim)
			return token{kind: tokString, text: l.src[bodyStart : bodyStart+end], pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected character %q", c)

	case c >= '0' && c <= '9':
		n := l.pos
		isFloat := false
		for n < len(l.src) && (l.src[n] >= '0' && l.src[n] <= '9') {
			n++
		}
		if n < len(l.src) && l.src[n] == '.' && n+1 < len(l.src) && l.src[n+1] >= '0' && l.src[n+1] <= '9' {
			isFloat = true
			n++
			for n < len(l.src) && (l.src[n] >= '0' && l.src[n] <= '9') {
				n++
			}
		}
		text := l.src[l.pos:n]
		l.pos = n
		if isFloat {
			return token{kind: tokFloat, text: text, pos: start}, nil
		}
		return token{kind: tokInt, text: text, pos: start}, nil

	case isIdentStart(c):
		n := l.pos
		for n < len(l.src) && isIdentChar(l.src[n]) {
			n++
		}
		text := l.src[l.pos:n]
		l.pos = n
		up := strings.ToUpper(text)
		if keywords[up] {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil

	case c == '"' || c == '`': // quoted identifier
		quote := c
		l.pos++
		n := l.pos
		for n < len(l.src) && l.src[n] != quote {
			n++
		}
		if n >= len(l.src) {
			return token{}, l.errf(start, "unterminated quoted identifier")
		}
		text := l.src[l.pos:n]
		// The printer renders identifiers bare, so a quoted identifier
		// only survives a print∘parse round trip if it is a valid bare
		// identifier and not a keyword. The SQL subset has no use for
		// exotic names (schemas declare plain ones); reject the rest.
		if !isBareIdent(text) {
			return token{}, l.errf(start, "quoted identifier %q is not a plain identifier", text)
		}
		l.pos = n + 1
		return token{kind: tokIdent, text: text, pos: start}, nil

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "<>", "!=", "::":
			l.pos += 2
			return token{kind: tokSymbol, text: two, pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '(', ')', ',', '*', '+', '-', '/', '%', '.', ';':
			l.pos++
			return token{kind: tokSymbol, text: string(c), pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// isBareIdent reports whether s lexes back as a single tokIdent when
// printed without quotes.
func isBareIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return !keywords[strings.ToUpper(s)]
}

// lexAll tokenizes the whole input (used by the parser, which wants
// lookahead).
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// identLike reports whether t can serve as an identifier. Some
// keywords (like KEY) commonly appear as column names; we allow a
// small safe set.
func identLike(t token) bool {
	if t.kind == tokIdent {
		return true
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "ALL", "SET":
			return true
		}
	}
	return false
}
