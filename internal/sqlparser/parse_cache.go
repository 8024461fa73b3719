package sqlparser

import (
	"fmt"
	"sync"
)

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
	m  map[string]Statement
	// errs memoizes parse failures under its own small bound so
	// repeated bad statements skip re-parsing without competing with
	// hot templates for space.
	errs map[string]error
}

var parseCache [parseCacheShards]parseShard

func parseShardFor(sql string) *parseShard {
	// FNV-1a over the statement text.
	h := uint32(2166136261)
	for i := 0; i < len(sql); i++ {
		h = (h ^ uint32(sql[i])) * 16777619
	}
	return &parseCache[h%parseCacheShards]
}

func cachedParse(sql string) (Statement, error, bool) {
	if len(sql) > parseCacheMaxSQLLen {
		return nil, nil, false
	}
	sh := parseShardFor(sql)
	sh.mu.Lock()
	stmt, ok := sh.m[sql]
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
	return stmt, nil, true
}

func storeParse(sql string, stmt Statement, err error) {
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
		sh.m = make(map[string]Statement, parseCachePerShard)
	}
	if len(sh.m) >= parseCachePerShard {
		// Evict an arbitrary entry; the workload's statement-shape
		// population is far below the cap, so this path is cold.
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[sql] = stmt
	sh.mu.Unlock()
}

// ParseCached is Parse backed by the process-wide statement cache.
// The returned statement is shared across callers and must not be
// modified; Bind it (which copies) before evaluation.
func ParseCached(src string) (Statement, error) {
	if stmt, err, ok := cachedParse(src); ok {
		return stmt, err
	}
	stmt, err := Parse(src)
	storeParse(src, stmt, err)
	return stmt, err
}

// ParseSelectCached is ParseSelect backed by the statement cache,
// with the same sharing contract as ParseCached.
func ParseSelectCached(src string) (*SelectStmt, error) {
	stmt, err := ParseCached(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT, got %T", stmt)
	}
	return sel, nil
}

// ParseNorm is ParseCached with placeholder normalization on the miss
// path: the raw text is normalized (NormalizeParams) and BOTH texts
// cache the one statement parsed from the canonical form. The same
// logical statement arriving as "... WHERE a = ?" over the v2
// protocol, "... WHERE a = $1" over the Postgres wire, or
// "... WHERE a = :a" from a client library therefore returns the SAME
// shared *Statement, so every statement-identity cache downstream (the
// checker's statement plans key on the shared statement pointer) hits
// across ingress surfaces. The warm path is one cache probe on the raw
// text — normalization only runs on a miss.
func ParseNorm(src string) (Statement, error) {
	if stmt, err, ok := cachedParse(src); ok {
		return stmt, err
	}
	norm := NormalizeParams(src)
	if norm == src {
		stmt, err := Parse(src)
		storeParse(src, stmt, err)
		return stmt, err
	}
	stmt, err, ok := cachedParse(norm)
	if !ok {
		stmt, err = Parse(norm)
		storeParse(norm, stmt, err)
	}
	storeParse(src, stmt, err)
	return stmt, err
}

// ParseSelectNorm is ParseNorm requiring a SELECT, with the same
// sharing contract as ParseSelectCached.
func ParseSelectNorm(src string) (*SelectStmt, error) {
	stmt, err := ParseNorm(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT, got %T", stmt)
	}
	return sel, nil
}
