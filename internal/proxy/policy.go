package proxy

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/checker"
	"repro/internal/durable"
	"repro/internal/policy"
	"repro/internal/sqlparser"
)

// The online policy lifecycle, server side. A candidate policy staged
// through StagePolicy (or the v2 "policy.stage" op) puts the proxy in
// shadow mode: every live query decides under BOTH the active and the
// candidate policy. The active verdict enforces; a disagreement — the
// candidate would block what the active allows ("tighten") or allow
// what it blocks ("loosen") — becomes a ShadowDiff record that goes to
// the structured log, to any registered subscribers, and into a
// bounded ring the "policy.diff" op polls. Promote swaps the candidate
// in (its shadow-warmed caches come with it); Rollback discards it.
// With a WAL open, every lifecycle step is also a durable record, so a
// crash mid-trial restores both versions (see OpenDurable).

// shadowDiffRingMax bounds the divergence ring. Oldest records evict
// first; the monotone Seq lets a poller detect the gap.
const shadowDiffRingMax = 256

// StagePolicy builds a candidate policy from view SQL over the active
// policy's schema and stages it for shadow dual-decide. With a WAL
// open the stage is persisted before StagePolicy returns; a WAL
// failure un-stages the candidate so memory and log never disagree.
func (s *Server) StagePolicy(views map[string]string) (checker.PolicyVersion, error) {
	pol, err := policy.New(s.Checker.Policy().Schema, views)
	if err != nil {
		return checker.PolicyVersion{}, err
	}
	pv, err := s.Checker.StagePolicy(pol)
	if err != nil {
		return checker.PolicyVersion{}, err
	}
	s.declareIndexes(pol)
	if wal := s.Durable(); wal != nil {
		id := durable.PolicyID{Fingerprint: pv.Fingerprint, Views: views}
		if s.DB != nil {
			id.DBHash = s.DB.ContentHash()
		}
		if _, err := wal.StagePolicy(id); err != nil {
			_, _ = s.Checker.Rollback()
			return checker.PolicyVersion{}, err
		}
	}
	s.logf("proxy: staged candidate policy (epoch %d, %d views); shadow dual-decide on", pv.Epoch, pv.Views)
	return pv, nil
}

// PromotePolicy makes the staged candidate the enforcing policy. The
// promoted version keeps its epoch, so the cache entries its shadow
// decisions warmed serve enforcement immediately. The divergence ring
// is cleared — its records describe a trial that is over.
func (s *Server) PromotePolicy() (checker.PolicyVersion, error) {
	pv, err := s.Checker.Promote()
	if err != nil {
		return checker.PolicyVersion{}, err
	}
	if wal := s.Durable(); wal != nil {
		if _, werr := wal.PromotePolicy(); werr != nil {
			// The in-memory promote already happened and must not be
			// undone (decisions may be flowing under it); surface the
			// durability gap loudly instead.
			s.logf("proxy: WAL promote record lost (recovery will restore the pre-promote policy): %v", werr)
		}
	}
	s.clearShadowDiffs()
	s.logf("proxy: promoted candidate policy (epoch %d); shadow dual-decide off", pv.Epoch)
	return pv, nil
}

// RollbackPolicy discards the staged candidate and ends shadow mode.
func (s *Server) RollbackPolicy() (checker.PolicyVersion, error) {
	pv, err := s.Checker.Rollback()
	if err != nil {
		return checker.PolicyVersion{}, err
	}
	if wal := s.Durable(); wal != nil {
		if _, werr := wal.RollbackPolicy(); werr != nil {
			s.logf("proxy: WAL rollback record lost: %v", werr)
		}
	}
	s.clearShadowDiffs()
	s.logf("proxy: rolled back candidate policy (epoch %d); shadow dual-decide off", pv.Epoch)
	return pv, nil
}

// SubscribeShadow registers a callback invoked for every divergence
// record, after it is sequenced and ringed. Callbacks run on the
// query path — keep them fast or hand off. There is no unsubscribe.
func (s *Server) SubscribeShadow(fn func(ShadowDiff)) {
	s.shadowMu.Lock()
	s.shadowSubs = append(s.shadowSubs, fn)
	s.shadowMu.Unlock()
}

// ShadowDiffs returns the ringed divergence records with Seq > after
// (oldest first) and the newest sequence issued so far.
func (s *Server) ShadowDiffs(after uint64) (diffs []ShadowDiff, last uint64) {
	s.shadowMu.Lock()
	defer s.shadowMu.Unlock()
	for _, d := range s.diffRing {
		if d.Seq > after {
			diffs = append(diffs, d)
		}
	}
	return diffs, s.diffSeq
}

func (s *Server) clearShadowDiffs() {
	s.shadowMu.Lock()
	s.diffRing = s.diffRing[:0] // Seq stays monotone across trials
	s.shadowMu.Unlock()
}

// dualDecide is query's shadow-mode check: one consistent decision
// under the (active, candidate) pair, divergence recording, and the
// overhead histogram. The active verdict is what enforcement uses.
func (s *Server) dualDecide(ctx context.Context, req *Request, sel *sqlparser.SelectStmt, args sqlparser.Args, sess *session) checker.Decision {
	start := time.Now()
	sd, staged := s.Checker.CheckShadowBorrowed(ctx, sel, args, sess.attrs, sess.tr)
	if !staged {
		// The candidate was promoted or rolled back between ShadowStaged
		// and the version-table load; the active verdict is all there is.
		return sd.Active
	}
	s.mShadowDecides.Inc()
	s.mShadowLat.Observe(time.Since(start).Microseconds())
	if sd.Diverged {
		s.recordDivergence(req, sess, sd)
	}
	return sd.Active
}

// recordDivergence sequences one diff record into the ring and fans it
// out to the log and subscribers.
func (s *Server) recordDivergence(req *Request, sess *session, sd checker.ShadowDecision) {
	s.mShadowDiverge.Inc()
	switch sd.Kind {
	case checker.DivergeTighten:
		s.mShadowTighten.Inc()
	case checker.DivergeLoosen:
		s.mShadowLoosen.Inc()
	}
	diff := ShadowDiff{
		SQL:           req.SQL,
		Session:       sess.name,
		ActiveAllowed: sd.Active.Allowed,
		ShadowAllowed: sd.Shadow.Allowed,
		ActiveReason:  sd.Active.Reason,
		ShadowReason:  sd.Shadow.Reason,
		Kind:          sd.Kind,
		ActiveEpoch:   sd.Active.Epoch,
		ShadowEpoch:   sd.Shadow.Epoch,
	}
	s.shadowMu.Lock()
	s.diffSeq++
	diff.Seq = s.diffSeq
	if len(s.diffRing) >= shadowDiffRingMax {
		copy(s.diffRing, s.diffRing[1:])
		s.diffRing = s.diffRing[:len(s.diffRing)-1]
	}
	s.diffRing = append(s.diffRing, diff)
	subs := s.shadowSubs
	s.shadowMu.Unlock()
	s.shadowDiffLog(&diff)
	for _, fn := range subs {
		fn(diff)
	}
}

// shadowDiffLog emits one divergence as a single JSON line through
// Logf, shaped like the slow-query log (DESIGN.md §14 for the schema).
func (s *Server) shadowDiffLog(diff *ShadowDiff) {
	rec := struct {
		Event string `json:"event"`
		ShadowDiff
	}{Event: "shadow_diff", ShadowDiff: *diff}
	if b, err := json.Marshal(rec); err == nil {
		s.logf("%s", b)
	}
}

// policyStatus assembles the PolicyBody for the policy.* ops.
// withDiffs additionally drains ringed records newer than after.
func (s *Server) policyStatus(after uint64, withDiffs bool) *PolicyBody {
	active, cand := s.Checker.Versions()
	pb := &PolicyBody{
		ActiveEpoch:       active.Epoch,
		ActiveFingerprint: active.Fingerprint,
		ActiveViews:       active.Views,
		ShadowDecides:     s.mShadowDecides.Value(),
		Divergences:       s.mShadowDiverge.Value(),
		DivergeTighten:    s.mShadowTighten.Value(),
		DivergeLoosen:     s.mShadowLoosen.Value(),
	}
	if cand != nil {
		pb.Staged = true
		pb.CandidateEpoch = cand.Epoch
		pb.CandidateParent = cand.Parent
		pb.CandidateFingerprint = cand.Fingerprint
		pb.CandidateViews = cand.Views
		if wal := s.Durable(); wal != nil {
			if cv := wal.CandidateVersion(); cv != nil {
				pb.CandidateVersionID = cv.ID
			}
		}
	}
	if withDiffs {
		pb.Diffs, pb.LastDiffSeq = s.ShadowDiffs(after)
	} else {
		s.shadowMu.Lock()
		pb.LastDiffSeq = s.diffSeq
		s.shadowMu.Unlock()
	}
	return pb
}

// --- client side ---

// PolicyStage stages a candidate policy (view SQL by name) for shadow
// dual-decide on the server.
func (c *Client) PolicyStage(ctx context.Context, views map[string]string) (*PolicyBody, error) {
	return c.policyOp(ctx, &Request{Op: "policy.stage", Views: views})
}

// PolicyPromote makes the staged candidate the enforcing policy.
func (c *Client) PolicyPromote(ctx context.Context) (*PolicyBody, error) {
	return c.policyOp(ctx, &Request{Op: "policy.promote"})
}

// PolicyRollback discards the staged candidate.
func (c *Client) PolicyRollback(ctx context.Context) (*PolicyBody, error) {
	return c.policyOp(ctx, &Request{Op: "policy.rollback"})
}

// PolicyStatus fetches the policy lifecycle state and shadow counters.
func (c *Client) PolicyStatus(ctx context.Context) (*PolicyBody, error) {
	return c.policyOp(ctx, &Request{Op: "policy.status"})
}

// PolicyDiff fetches divergence records with Seq > after. Pass the
// previous response's LastDiffSeq to poll incrementally; 0 for all
// ringed records.
func (c *Client) PolicyDiff(ctx context.Context, after uint64) (*PolicyBody, error) {
	return c.policyOp(ctx, &Request{Op: "policy.diff", Target: after})
}

func (c *Client) policyOp(ctx context.Context, req *Request) (*PolicyBody, error) {
	resp, err := c.def.call(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Policy, nil
}
