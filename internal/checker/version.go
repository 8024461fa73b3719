package checker

// The versioned policy store. The checker used to hold exactly one
// compiled policy snapshot behind an atomic pointer; shadow mode needs
// two — the ACTIVE policy that enforces, and an optional CANDIDATE
// staged for trial — plus a stable notion of "which policy decided
// this query". A polVersion is one compiled policy with a monotone
// epoch; the versionTable publishes the (active, candidate) pair
// atomically so stage/promote/rollback never race with in-flight
// decisions, which pin the version they started with.
//
// Epochs are the cache-invalidation currency: every decision-cache key
// (history-free and template tiers) embeds the deciding epoch, so
// swapping policies invalidates warm state by bumping the epoch —
// stale-epoch entries never match again, and the decision cache drops
// them (dropDeadEpochs) — instead of recreating every map. A republish whose
// compiled fingerprint is unchanged keeps its epoch, so all warm state
// stays live (see installActive). Candidate decisions warm the same
// caches under the candidate's epoch, which means a promote arrives
// with its cache tiers already hot from the shadow traffic.

import (
	"errors"
	"time"

	"repro/internal/cq"
	"repro/internal/policy"
)

// polVersion is one immutable compiled policy version: the epoch that
// tags its cache keys and Decisions, the compiled-plan fingerprint,
// the indexed plan (compile.go), and the source policy.
type polVersion struct {
	epoch  uint64
	parent uint64 // epoch this version was staged against (0 for roots)
	fp     string
	comp   *compiledPolicy
	pol    *policy.Policy
}

// versionTable is the atomically-published pair of resident versions.
// candidate is nil when nothing is staged.
type versionTable struct {
	active    *polVersion
	candidate *polVersion
}

// PolicyVersion is the exported summary of one resident policy
// version, returned by the lifecycle API and surfaced through the
// proxy's policy.status op.
type PolicyVersion struct {
	Epoch       uint64
	Parent      uint64
	Fingerprint string
	Views       int
}

func (v *polVersion) summary() PolicyVersion {
	return PolicyVersion{Epoch: v.epoch, Parent: v.parent, Fingerprint: v.fp, Views: len(v.pol.Views)}
}

// ErrNoCandidate is returned by Promote/Rollback when no candidate
// policy is staged.
var ErrNoCandidate = errors.New("checker: no candidate policy staged")

// compilePol compiles a policy into its indexed plan, timing into
// checker.compile.micros. Compilation happens once per lifecycle
// event, never per decision.
func (c *Checker) compilePol(p *policy.Policy) *compiledPolicy {
	start := time.Now()
	// A malformed disjunct reveals nothing (cq.Query.WellFormed), so
	// leaving it out only tightens; no view translated from SQL is one.
	var views []*cq.Query
	for _, q := range p.Disjuncts(nil) {
		if q.WellFormed(p.Schema) {
			views = append(views, q)
		}
	}
	comp := compilePolicy(p.Fingerprint(), views)
	c.mCompile.Observe(time.Since(start).Microseconds())
	return comp
}

// activeVersion returns the current active version.
func (c *Checker) activeVersion() *polVersion { return c.vers.Load().active }

// ShadowStaged reports whether a candidate policy is currently staged.
// It is one atomic load, cheap enough for the per-query hot path.
func (c *Checker) ShadowStaged() bool { return c.vers.Load().candidate != nil }

// installActive compiles pol and publishes it as the active version.
// When the compiled fingerprint equals the current active version's,
// the epoch is NOT bumped and the current version stays published
// (modulo the policy pointer), so every warm cache entry remains
// valid — a no-op republish costs one compile and nothing else. A
// changed fingerprint takes a fresh epoch, which invalidates all
// previously-keyed decisions at once. The staged candidate, if any,
// survives either way. Reports whether the epoch was bumped.
func (c *Checker) installActive(pol *policy.Policy) (PolicyVersion, bool) {
	c.verMu.Lock()
	defer c.verMu.Unlock()
	cur := c.vers.Load()
	comp := c.compilePol(pol)
	if cur.active.fp == comp.fp {
		// Fingerprint-identical republish: same epoch, same compiled
		// plan shape; keep the warm state. The (possibly new) policy
		// pointer is still installed so Policy() tracks the caller's
		// object.
		nv := &polVersion{epoch: cur.active.epoch, parent: cur.active.parent, fp: cur.active.fp, comp: cur.active.comp, pol: pol}
		c.vers.Store(&versionTable{active: nv, candidate: cur.candidate})
		return nv.summary(), false
	}
	c.nextEpoch++
	nv := &polVersion{epoch: c.nextEpoch, parent: cur.active.epoch, fp: comp.fp, comp: comp, pol: pol}
	c.vers.Store(&versionTable{active: nv, candidate: cur.candidate})
	c.dropDeadEpochs()
	return nv.summary(), true
}

// SetActivePolicy replaces the active policy in place — the restart/
// recovery path, where a WAL-recovered promote must override the
// policy the checker was constructed with. Fingerprint-identical
// policies keep their epoch and every warm cache entry (see
// installActive); the bool reports whether the epoch was bumped. The
// policy must share the active schema.
func (c *Checker) SetActivePolicy(p *policy.Policy) (PolicyVersion, bool, error) {
	if p.Schema != c.activeVersion().pol.Schema {
		return PolicyVersion{}, false, errors.New("checker: replacement policy schema differs from active")
	}
	pv, bumped := c.installActive(p)
	return pv, bumped, nil
}

// StagePolicy compiles p and stages it as the candidate policy. Every
// subsequent CheckShadowBorrowed (the proxy's dual-decide path) decides
// under both versions; the active version keeps enforcing. Staging
// replaces any previously staged candidate. The candidate must share
// the active policy's schema (same application); policies over a
// different schema are rejected.
func (c *Checker) StagePolicy(p *policy.Policy) (PolicyVersion, error) {
	c.verMu.Lock()
	defer c.verMu.Unlock()
	cur := c.vers.Load()
	if p.Schema != cur.active.pol.Schema {
		return PolicyVersion{}, errors.New("checker: candidate policy schema differs from active")
	}
	comp := c.compilePol(p)
	c.nextEpoch++
	cand := &polVersion{epoch: c.nextEpoch, parent: cur.active.epoch, fp: comp.fp, comp: comp, pol: p}
	c.vers.Store(&versionTable{active: cur.active, candidate: cand})
	if cur.candidate != nil {
		c.dropDeadEpochs()
	}
	return cand.summary(), nil
}

// Promote makes the staged candidate the active version and clears
// the candidate slot. The promoted version keeps its epoch, so every
// cache entry its shadow decisions warmed is immediately live for
// enforcement. Returns ErrNoCandidate when nothing is staged.
func (c *Checker) Promote() (PolicyVersion, error) {
	c.verMu.Lock()
	defer c.verMu.Unlock()
	cur := c.vers.Load()
	if cur.candidate == nil {
		return PolicyVersion{}, ErrNoCandidate
	}
	c.vers.Store(&versionTable{active: cur.candidate})
	c.dropDeadEpochs()
	return cur.candidate.summary(), nil
}

// Rollback discards the staged candidate, returning its summary.
// Returns ErrNoCandidate when nothing is staged.
func (c *Checker) Rollback() (PolicyVersion, error) {
	c.verMu.Lock()
	defer c.verMu.Unlock()
	cur := c.vers.Load()
	if cur.candidate == nil {
		return PolicyVersion{}, ErrNoCandidate
	}
	c.vers.Store(&versionTable{active: cur.active})
	c.dropDeadEpochs()
	return cur.candidate.summary(), nil
}

// Versions returns the active version summary and the candidate's
// (nil when nothing is staged).
func (c *Checker) Versions() (active PolicyVersion, candidate *PolicyVersion) {
	t := c.vers.Load()
	active = t.active.summary()
	if t.candidate != nil {
		s := t.candidate.summary()
		candidate = &s
	}
	return active, candidate
}
