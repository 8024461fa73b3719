package sqlparser

import "sync"

// Applications issue the same statement shapes over and over (only
// the bound arguments change), so the proxy hot path would otherwise
// re-lex and re-parse identical SQL on every request. The cache below
// memoizes parse results process-wide. Cached statements are SHARED:
// callers must treat them as immutable templates — Bind and MapExprs
// already deep-copy, which is how every evaluation path consumes them.

const (
	parseCacheShards    = 16
	parseCachePerShard  = 512
	parseCacheMaxSQLLen = 4096 // don't retain giant one-off statements

	// parseErrCachePerShard bounds the separate negative cache. Parse
	// errors MUST NOT share the statement-template budget: a stream of
	// unique malformed SQL (a buggy client, a probing attacker) would
	// otherwise evict every hot template and force the whole workload
	// back through the parser (negative-cache poisoning + thrash).
	parseErrCachePerShard = 64
)

type parseShard struct {
	mu sync.Mutex
	m  map[string]*parsed
	// errs memoizes parse failures under its own small bound so
	// repeated bad statements skip re-parsing without competing with
	// hot templates for space.
	errs map[string]error
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

func cachedParse(sql string) (*parsed, error, bool) {
	if len(sql) > parseCacheMaxSQLLen {
		return nil, nil, false
	}
	sh := parseShardFor(sql)
	sh.mu.Lock()
	p, ok := sh.m[sql]
	if !ok {
		var err error
		if err, ok = sh.errs[sql]; ok {
			sh.mu.Unlock()
			return nil, err, true
		}
		sh.mu.Unlock()
		return nil, nil, false
	}
	sh.mu.Unlock()
	return p, nil, true
}

func storeParse(sql string, p *parsed, err error) {
	if len(sql) > parseCacheMaxSQLLen {
		return
	}
	sh := parseShardFor(sql)
	sh.mu.Lock()
	if err != nil {
		// Failures go to the separate bounded negative cache so they can
		// never displace a hot statement template.
		if sh.errs == nil {
			sh.errs = make(map[string]error, parseErrCachePerShard)
		}
		if len(sh.errs) >= parseErrCachePerShard {
			for k := range sh.errs {
				delete(sh.errs, k)
				break
			}
		}
		sh.errs[sql] = err
		sh.mu.Unlock()
		return
	}
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
	if p, err, ok := cachedParse(src); ok {
		if err != nil {
			return nil, Needs{}, err
		}
		return p.stmt, p.needs, nil
	}
	stmt, err := Parse(src)
	p := &parsed{stmt, NeedsOf(stmt)}
	storeParse(src, p, err)
	return p.stmt, p.needs, err
}

// ParseSelectNorm is ParseNorm requiring a SELECT, with the same
// sharing contract.
func ParseSelectNorm(src string) (*SelectStmt, error) {
	return asSelect(ParseNorm(src))
}
