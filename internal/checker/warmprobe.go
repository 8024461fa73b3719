package checker

// The warm probe: a front-cache-only decide that either answers from
// the statement-identity front cache or reports a miss without doing
// any cold work. The proxy's inline fast path (internal/proxy
// server.go) uses it to decide ON THE READ GOROUTINE whether a request
// can be executed inline — only a front-tier hit qualifies, because
// only then is the decision O(map probe) and guaranteed not to stall
// the connection's reader behind binding, translation, or an embedding
// search.
//
// The probe is stageFront's (decideState.frontProbe): the same rendered
// signature, the same READ-ONLY intern lookup — front keys are interned
// when stored, so a signature absent from the intern table cannot match
// any front entry, and a miss inserts nothing.

import (
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// internGet is the read-only half of intern: it returns the canonical
// string for the scratch bytes iff one already exists. The map index
// by converted []byte is no-copy, so a lookup allocates nothing.
func (c *Checker) internGet(b []byte) (string, bool) {
	c.strMu.RLock()
	s, ok := c.strs[string(b)]
	c.strMu.RUnlock()
	return s, ok
}

// CheckWarmBorrowed probes the front cache for a concrete check and
// reports whether it answered. A hit is a complete decision under the
// borrowed-Views contract of CheckBorrowed (the Views slice may alias
// cache storage; treat it as read-only) and is counted exactly like a
// front-tier hit through the full path (decisions, allowed/blocked,
// cache and front-hit counters). A miss performs NO cold work, bumps
// NO counters — the caller is expected to re-issue the check through
// CheckBorrowed, which counts the miss itself — and allocates nothing.
func (c *Checker) CheckWarmBorrowed(sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value) (Decision, bool) {
	ver := c.vers.Load().active
	st := decidePool.Get().(*decideState)
	st.c, st.ver, st.sel, st.args, st.session = c, ver, sel, args, session
	d, ok := st.frontProbe()
	st.release()
	if !ok {
		return Decision{}, false
	}
	d.FromCache = true
	d.Tier = TierFront
	d.Epoch = ver.epoch
	c.mDecisions.Inc()
	if d.Allowed {
		c.mAllowed.Inc()
	} else {
		c.mBlocked.Inc()
	}
	c.mCacheHits.Inc()
	c.mFrontHit.Inc()
	return d, true
}
