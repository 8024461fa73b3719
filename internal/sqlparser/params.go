package sqlparser

import "strconv"

// Placeholder normalization. Every ingress surface — the v2 line
// protocol, the Postgres wire listener, and the database/sql driver —
// accepts whatever placeholder style its clients write: sequential
// `?`, Postgres `$N`, `:name`, or the native `?name`. The
// statement-identity caches (the parse cache and the checker's
// statement plans) key on statement text, so "WHERE UId = ?" from a v2 client
// and "WHERE UId = $1" from a stock Postgres driver would otherwise be
// two distinct statements forever. NormalizeParams rewrites a
// statement into one canonical parameter form so identical statements
// key identically no matter which surface they entered through:
//
//   - bare `?`  -> `$N` (N assigned left to right, matching the
//     parser's own sequential index assignment)
//   - `:name`   -> `?name` (the parser's native named form)
//   - `$N` and `?name` pass through unchanged
//
// The scan must not rewrite placeholder characters that do not mean
// placeholders, which is where real SQL gets treacherous (SNIPPETS.md
// Snippet 3 catalogs the edge cases): `?`/`:`/`$` inside single-quoted
// strings (with '' escapes), quoted identifiers, line and block
// comments, and dollar-quoted strings are data; the `::` of a cast is
// an operator, not a `:name`; `$tag$` opens a string, not a
// placeholder. When the scanner hits a construct it cannot finish
// (an unterminated string, say) it returns the input unchanged and
// lets the parser produce the real error.

// NormalizeParams returns src with its placeholders rewritten to the
// canonical form, or src itself (no allocation) when nothing needs
// rewriting.
func NormalizeParams(src string) string {
	// Fast scan: find the first byte that could need attention. Most
	// statements on the hot path are already canonical.
	i := 0
	for i < len(src) {
		switch src[i] {
		case '?', ':', '$', '\'', '"', '`', '-', '/':
			goto rewrite
		}
		i++
	}
	return src

rewrite:
	var out []byte
	// emit appends src[from:to] lazily: until the first actual rewrite
	// happens, nothing is copied.
	flushed := 0
	flush := func(to int) {
		if out == nil {
			out = make([]byte, 0, len(src)+8)
		}
		out = append(out, src[flushed:to]...)
		flushed = to
	}
	nextPos := 0
	for i = 0; i < len(src); {
		c := src[i]
		switch c {
		case '\'':
			j, ok := skipQuoted(src, i, '\'', true)
			if !ok {
				return src
			}
			i = j
		case '"', '`':
			j, ok := skipQuoted(src, i, c, false)
			if !ok {
				return src
			}
			i = j
		case '-':
			if i+1 < len(src) && src[i+1] == '-' {
				for i < len(src) && src[i] != '\n' {
					i++
				}
			} else {
				i++
			}
		case '/':
			if i+1 < len(src) && src[i+1] == '*' {
				end := indexFrom(src, i+2, "*/")
				if end < 0 {
					return src
				}
				i = end + 2
			} else {
				i++
			}
		case '$':
			if i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9' {
				// Already-canonical $N. It does NOT advance the bare-`?`
				// counter: the parser numbers sequential `?` independently
				// of explicit indices, and the rewrite must agree with
				// what the parser would have assigned on the raw text.
				j := i + 1
				for j < len(src) && src[j] >= '0' && src[j] <= '9' {
					j++
				}
				i = j
				break
			}
			// Dollar-quoted string $tag$...$tag$ — skip verbatim.
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			if j < len(src) && src[j] == '$' {
				delim := src[i : j+1]
				end := indexFrom(src, j+1, delim)
				if end < 0 {
					return src
				}
				i = end + len(delim)
				break
			}
			i++
		case ':':
			if i+1 < len(src) && src[i+1] == ':' {
				i += 2 // cast operator; the following ident is a type
				break
			}
			if i+1 < len(src) && isIdentStart(src[i+1]) {
				j := i + 1
				for j < len(src) && isIdentChar(src[j]) {
					j++
				}
				flush(i)
				out = append(out, '?')
				out = append(out, src[i+1:j]...)
				flushed = j
				i = j
				break
			}
			i++
		case '?':
			if i+1 < len(src) && isIdentChar(src[i+1]) {
				// Native named form ?name: already canonical.
				j := i + 1
				for j < len(src) && isIdentChar(src[j]) {
					j++
				}
				i = j
				break
			}
			nextPos++
			flush(i)
			out = append(out, '$')
			out = strconv.AppendInt(out, int64(nextPos), 10)
			flushed = i + 1
			i++
		default:
			i++
		}
	}
	if out == nil {
		return src
	}
	flush(len(src))
	return string(out)
}

// skipQuoted returns the index just past a quoted region opening at
// src[i] with the given quote byte. doubled turns on the SQL ”
// escape. ok=false means the region never closes.
func skipQuoted(src string, i int, quote byte, doubled bool) (int, bool) {
	j := i + 1
	for j < len(src) {
		if src[j] != quote {
			j++
			continue
		}
		if doubled && j+1 < len(src) && src[j+1] == quote {
			j += 2
			continue
		}
		return j + 1, true
	}
	return 0, false
}

func indexFrom(src string, from int, sub string) int {
	for j := from; j+len(sub) <= len(src); j++ {
		if src[j:j+len(sub)] == sub {
			return j
		}
	}
	return -1
}

// NumPositionalParams reports how many positional values a statement
// needs: the count of sequential `?` parameters or, with explicit $N
// placeholders, the highest index used.
func NumPositionalParams(s Statement) int {
	n := 0
	for _, p := range Params(s) {
		if p.Name != "" {
			continue
		}
		if p.Index+1 > n {
			n = p.Index + 1
		}
	}
	return n
}

// HasNamedParams reports whether the statement uses any ?name
// parameters.
func HasNamedParams(s Statement) bool {
	for _, p := range Params(s) {
		if p.Name != "" {
			return true
		}
	}
	return false
}
