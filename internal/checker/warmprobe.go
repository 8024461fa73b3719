package checker

// The warm probe: a history-free-only decide that either answers from
// the decision cache's history-free key or reports a miss without doing
// any cold work. The proxy's inline fast path (internal/proxy
// server.go) uses it to decide ON THE READ GOROUTINE whether a request
// can be executed inline — only a cached trace-independent allow
// qualifies, because only then is the decision a plan lookup, a slot
// fill and one map probe, guaranteed not to stall the connection's
// reader behind compiling a plan, translation, or an embedding search.
//
// The key is the one the history-free stage probes (appendCacheKey),
// filled from the statement's plan as stageBind fills it. A
// cached allow under it holds under every trace (coverage is monotone
// in the facts); a cached denial is only a marker that the template
// needs facts, so the probe reports it as a miss.

import (
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// CheckWarmBorrowed probes the history-free tier for a concrete check
// and reports whether it answered. A hit is a complete allow under the
// borrowed-Views contract of CheckBorrowed (the Views slice may alias
// cache storage; treat it as read-only) and is counted exactly like a
// history-free hit through the full path (decisions, allowed, cache
// and histfree-hit counters). A statement with no compiled plan, a call
// the plan cannot bind, an absent entry and a denial marker are all
// misses; so is a refused plan, whose shape 0 no decision is stored
// under. A miss performs NO cold work — not even
// compiling a plan — bumps NO counters (the caller is expected to
// re-issue the check through CheckBorrowed, which counts the miss
// itself) and stores nothing.
func (c *Checker) CheckWarmBorrowed(sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value) (Decision, bool) {
	plan := c.tr.CachedPlan(sel)
	if plan == nil {
		return Decision{}, false
	}
	ver := c.vers.Load().active
	st := decidePool.Get().(*decideState)
	st.c, st.ver, st.sel, st.args, st.session = c, ver, sel, args, session
	var e *cacheEntry
	if st.bindPlan(plan) == nil {
		st.keyBuf = st.appendCacheKey(st.keyBuf[:0])
		e = c.cache.Get(st.keyBuf)
	}
	st.release()
	if e == nil || !e.d.Allowed {
		return Decision{}, false
	}
	d := hitDecision(e.d, TierHistFree, false)
	d.Epoch = ver.epoch
	c.mDecisions.Inc()
	c.mAllowed.Inc()
	c.mCacheHits.Inc()
	c.mHistFreeHit.Inc()
	return d, true
}
