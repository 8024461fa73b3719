package checker

// Shadow dual-decide: when a candidate policy is staged (version.go),
// one query can be decided under BOTH resident versions — the active
// version's verdict enforces, the candidate's is advisory — and the
// divergence between them classified. This is the paper's §4
// evaluation loop run against live traffic: a candidate is trialed by
// diffing its decisions against the incumbent's before any promote
// (DePLOI audits synthesized policies by the same dual-check method).

import (
	"context"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Divergence kinds reported in ShadowDecision.Kind.
const (
	// DivergeTighten marks a query the active policy allows but the
	// candidate would block — promoting removes access.
	DivergeTighten = "tighten"
	// DivergeLoosen marks a query the active policy blocks but the
	// candidate would allow — promoting grants access.
	DivergeLoosen = "loosen"
)

// ShadowDecision is the outcome of one dual-decide: both verdicts
// plus the divergence classification.
type ShadowDecision struct {
	// Active is the enforcing verdict, decided under the active
	// version exactly as Check would.
	Active Decision
	// Shadow is the candidate version's advisory verdict.
	Shadow Decision
	// Diverged reports Active.Allowed != Shadow.Allowed.
	Diverged bool
	// Kind classifies a divergence (DivergeTighten / DivergeLoosen);
	// empty when the verdicts agree.
	Kind string
}

func classifyShadow(active, shadow Decision) (bool, string) {
	if active.Allowed == shadow.Allowed {
		return false, ""
	}
	if active.Allowed {
		return true, DivergeTighten
	}
	return true, DivergeLoosen
}

// CheckShadowBorrowed decides one query under the active AND the staged
// candidate policy, returning both verdicts. The active half counts
// into the checker's decision counters exactly like Check; the shadow
// half is advisory and deliberately kept out of allowed/blocked
// accounting so shadow traffic never skews enforcement stats. Both
// halves run the full decision and warm the decision caches
// under their own epochs — a later Promote therefore arrives with the
// candidate's cache tiers already hot. ok is false (and only the
// active half is decided) when no candidate is staged.
//
// Both Decisions follow the borrowed contract of CheckBorrowed: their
// Views may alias cache-owned storage. The proxy's dual-decide hot path
// reads them only.
func (c *Checker) CheckShadowBorrowed(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (ShadowDecision, bool) {
	// One load pins a consistent (active, candidate) pair for the whole
	// dual-decide: a concurrent promote/rollback affects the next
	// query, never tears this one.
	vt := c.vers.Load()
	var sd ShadowDecision
	sd.Active = c.countDecision(c.decideVersion(ctx, vt.active, sel, args, session, tr, true))
	if vt.candidate == nil {
		return sd, false
	}
	sd.Shadow = c.decideVersion(ctx, vt.candidate, sel, args, session, tr, true)
	sd.Diverged, sd.Kind = classifyShadow(sd.Active, sd.Shadow)
	return sd, true
}
