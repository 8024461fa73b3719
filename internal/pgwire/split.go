package pgwire

import "strings"

// splitStatements splits a simple-Query buffer on top-level semicolons
// — outside single/double quotes, dollar-quoted strings, and comments
// — because psql and many clients send "stmt;" or "a; b;" in one
// message while the enforcement pipeline decides one statement at a
// time. Statements come back trimmed; empty segments are dropped. An
// unterminated construct ends the last statement at end of input and
// lets the parser report the real error.
func splitStatements(src string) []string {
	var out []string
	start := 0
	emit := func(end int) {
		s := strings.TrimSpace(src[start:end])
		if s != "" {
			out = append(out, s)
		}
	}
	i := 0
	for i < len(src) {
		switch c := src[i]; c {
		case ';':
			emit(i)
			i++
			start = i
		case '\'', '"', '`':
			j := i + 1
			for j < len(src) {
				if src[j] == c {
					if c == '\'' && j+1 < len(src) && src[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
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
				end := strings.Index(src[i+2:], "*/")
				if end < 0 {
					i = len(src)
				} else {
					i += 2 + end + 2
				}
			} else {
				i++
			}
		case '$':
			// A dollar-quoted string $tag$ ... $tag$, or a $N parameter:
			// as in the lexer, a tag never starts with a digit.
			j := i + 1
			if j < len(src) && isDigit(src[j]) {
				i = j
				break
			}
			for j < len(src) && isTagChar(src[j]) {
				j++
			}
			if j < len(src) && src[j] == '$' {
				delim := src[i : j+1]
				end := strings.Index(src[j+1:], delim)
				if end < 0 {
					i = len(src)
				} else {
					i = j + 1 + end + len(delim)
				}
			} else {
				i++
			}
		default:
			i++
		}
	}
	emit(len(src))
	return out
}

// isTagChar is the lexer's identifier byte, the bytes of a dollar tag.
func isTagChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c) || c >= 0x80
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// firstKeyword returns the statement's leading keyword, upper-cased.
func firstKeyword(sql string) string {
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		if c == '-' && i+1 < len(sql) && sql[i+1] == '-' {
			for i < len(sql) && sql[i] != '\n' {
				i++
			}
			continue
		}
		if c == '/' && i+1 < len(sql) && sql[i+1] == '*' {
			end := strings.Index(sql[i+2:], "*/")
			if end < 0 {
				return ""
			}
			i += 2 + end + 2
			continue
		}
		break
	}
	j := i
	for j < len(sql) && (sql[j] == '_' || sql[j] >= 'a' && sql[j] <= 'z' || sql[j] >= 'A' && sql[j] <= 'Z') {
		j++
	}
	return strings.ToUpper(sql[i:j])
}
