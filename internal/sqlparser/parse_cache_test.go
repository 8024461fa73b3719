package sqlparser

import (
	"fmt"
	"testing"
)

// A stream of unique malformed statements must not be able to evict
// hot statement templates: error entries live in their own small
// bounded cache, not the template budget. (Regression: error entries
// used to share the per-shard cap, so a probing client could thrash
// every hot template out of the cache.)
func TestParseCacheErrorChurnDoesNotEvictTemplates(t *testing.T) {
	hot := []string{
		"SELECT EId FROM Attendance WHERE UId = ?",
		"SELECT Name FROM Users WHERE UId = ?",
		"SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
	}
	stmts := make([]Statement, len(hot))
	for i, sql := range hot {
		st, err := ParseNorm(sql)
		if err != nil {
			t.Fatalf("prime %q: %v", sql, err)
		}
		stmts[i] = st
	}

	// Far more unique failures than the whole template cache holds.
	for i := 0; i < parseCacheShards*parseCachePerShard*4; i++ {
		sql := fmt.Sprintf("SELEC bogus FROM t%d WHERE", i)
		if _, err := ParseNorm(sql); err == nil {
			t.Fatalf("expected parse error for %q", sql)
		}
	}

	// ParseNorm returns the SHARED statement per SQL text, so pointer
	// identity proves the template survived the churn uncached-free.
	for i, sql := range hot {
		st, err := ParseNorm(sql)
		if err != nil {
			t.Fatalf("re-parse %q: %v", sql, err)
		}
		if st != stmts[i] {
			t.Errorf("hot template %q was evicted by error churn (got a fresh parse)", sql)
		}
	}

	// The negative cache itself must have stayed within its bound.
	for i := range parseCache {
		sh := &parseCache[i]
		sh.mu.Lock()
		n := len(sh.errs)
		sh.mu.Unlock()
		if n > parseErrCachePerShard {
			t.Errorf("shard %d: %d error entries, cap %d", i, n, parseErrCachePerShard)
		}
	}
}

// Parse failures are still memoized: the second parse of the same bad
// statement returns the cached error without re-lexing.
func TestParseCacheMemoizesErrors(t *testing.T) {
	const bad = "SELECT FROM WHERE !!"
	_, err1 := ParseNorm(bad)
	if err1 == nil {
		t.Fatal("expected parse error")
	}
	_, err2 := ParseNorm(bad)
	if err2 == nil {
		t.Fatal("expected cached parse error")
	}
	// Same error instance proves the negative-cache hit.
	if err1 != err2 {
		t.Errorf("error not served from cache: %v vs %v", err1, err2)
	}
}
