package sqlparser

import "sync"

// Applications issue the same statement shapes over and over (only
// the bound arguments change), so the proxy hot path would otherwise
// re-lex and re-parse identical SQL on every request. The cache below
// memoizes parse results process-wide. Cached statements are SHARED:
// callers must treat them as immutable templates — Bind and MapExprs
// already deep-copy, which is how every evaluation path consumes them.
// A text that fails to parse is not stored, so a stream of malformed
// statements never displaces a template.

const (
	parseCacheShards    = 16
	parseCachePerShard  = 512
	parseCacheMaxSQLLen = 4096 // don't retain giant one-off statements
)

type parseShard struct {
	mu sync.Mutex
	m  map[string]*parsed
}

var parseCache [parseCacheShards]parseShard

// parsed is a cached statement with what its parameters need.
type parsed struct {
	stmt  Statement
	needs Needs
}

func parseShardFor(sql string) *parseShard {
	// FNV-1a over the statement text.
	h := uint32(2166136261)
	for i := 0; i < len(sql); i++ {
		h = (h ^ uint32(sql[i])) * 16777619
	}
	return &parseCache[h%parseCacheShards]
}

func cachedParse(sql string) (*parsed, bool) {
	if len(sql) > parseCacheMaxSQLLen {
		return nil, false
	}
	sh := parseShardFor(sql)
	sh.mu.Lock()
	p, ok := sh.m[sql]
	sh.mu.Unlock()
	return p, ok
}

func storeParse(sql string, p *parsed) {
	if len(sql) > parseCacheMaxSQLLen {
		return
	}
	sh := parseShardFor(sql)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]*parsed, parseCachePerShard)
	}
	if len(sh.m) >= parseCachePerShard {
		// Evict an arbitrary entry; the workload's statement-shape
		// population is far below the cap, so this path is cold.
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[sql] = p
	sh.mu.Unlock()
}

// ParseNorm is Parse backed by the process-wide statement cache, keyed
// by the raw SQL text: a repeat of a text is one cache probe. The
// returned statement is shared across callers and must not be modified;
// Bind it (which copies) before evaluation. Each placeholder spelling of
// a statement (`?`, `$1`, `?name`, `:name`) is its own entry; the
// checker's statement plans meet again at their shape (cq.StmtPlan).
func ParseNorm(src string) (Statement, error) {
	stmt, _, err := ParseNeeds(src)
	return stmt, err
}

// ParseNeeds is ParseNorm returning the statement's Needs too, cached
// with it: a repeat of a text walks nothing.
func ParseNeeds(src string) (Statement, Needs, error) {
	if p, ok := cachedParse(src); ok {
		return p.stmt, p.needs, nil
	}
	stmt, err := Parse(src)
	if err != nil {
		return nil, Needs{}, err
	}
	p := &parsed{stmt, NeedsOf(stmt)}
	storeParse(src, p)
	return p.stmt, p.needs, nil
}

// ParseSelectNorm is ParseNorm requiring a SELECT, with the same
// sharing contract.
func ParseSelectNorm(src string) (*SelectStmt, error) {
	return asSelect(ParseNorm(src))
}
