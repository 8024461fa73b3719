package proxy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/checker"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// wideViews is the test policy plus an all-events view: strictly
// looser, so active-blocked event scans become "loosen" divergences.
func wideViews() map[string]string {
	return map[string]string{
		"V1":         "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2":         "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
		"VAllEvents": "SELECT * FROM Events",
	}
}

func TestPolicyLifecycleOverWire(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if _, err := cl.HelloDurable(ctx, "trial-sess", map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}

	// Before any stage: status reports one version, no candidate.
	pb, err := cl.PolicyStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pb == nil || pb.Staged || pb.ActiveViews != 2 {
		t.Fatalf("pre-stage status: %+v", pb)
	}
	baseEpoch := pb.ActiveEpoch

	// Promote and rollback without a candidate are client errors.
	if _, err := cl.PolicyPromote(ctx); err == nil {
		t.Fatal("promote without a staged candidate must fail")
	}
	if _, err := cl.PolicyRollback(ctx); err == nil {
		t.Fatal("rollback without a staged candidate must fail")
	}

	// Stage the wide candidate over the wire.
	pb, err = cl.PolicyStage(ctx, wideViews())
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Staged || pb.CandidateViews != 3 || pb.CandidateParent != baseEpoch {
		t.Fatalf("post-stage status: %+v", pb)
	}
	if pb.CandidateEpoch <= baseEpoch {
		t.Fatalf("candidate epoch %d not newer than active %d", pb.CandidateEpoch, baseEpoch)
	}

	// The active policy still enforces: the all-events scan stays
	// blocked, but the dual-decide records a loosen divergence.
	if _, err := cl.Query(ctx, "SELECT Title FROM Events"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("staged candidate must not enforce: %v", err)
	}
	// An agreeing query adds a dual-decide but no divergence.
	if _, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId=1"); err != nil {
		t.Fatal(err)
	}

	pb, err = cl.PolicyDiff(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Diffs) != 1 {
		t.Fatalf("want exactly one divergence ringed, got %d: %+v", len(pb.Diffs), pb.Diffs)
	}
	d := pb.Diffs[0]
	if d.Kind != checker.DivergeLoosen || d.ActiveAllowed || !d.ShadowAllowed {
		t.Fatalf("divergence record: %+v", d)
	}
	if d.SQL != "SELECT Title FROM Events" {
		t.Fatalf("divergence SQL: %q", d.SQL)
	}
	if d.Session != "trial-sess" {
		t.Fatalf("divergence session: %q", d.Session)
	}
	if d.ActiveEpoch != baseEpoch || d.ShadowEpoch != pb.CandidateEpoch {
		t.Fatalf("divergence epochs: active %d shadow %d (want %d/%d)",
			d.ActiveEpoch, d.ShadowEpoch, baseEpoch, pb.CandidateEpoch)
	}
	if pb.ShadowDecides < 2 || pb.Divergences != 1 || pb.DivergeLoosen != 1 || pb.DivergeTighten != 0 {
		t.Fatalf("shadow counters: %+v", pb)
	}

	// Cursor semantics: polling from LastDiffSeq returns nothing new.
	cursor := pb.LastDiffSeq
	pb, err = cl.PolicyDiff(ctx, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Diffs) != 0 {
		t.Fatalf("cursor poll must be empty, got %+v", pb.Diffs)
	}
	// A second divergence arrives past the cursor.
	if _, err := cl.Query(ctx, "SELECT Notes FROM Events"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("notes scan should stay blocked: %v", err)
	}
	pb, err = cl.PolicyDiff(ctx, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Diffs) != 1 || pb.Diffs[0].Seq <= cursor {
		t.Fatalf("want one post-cursor record, got %+v", pb.Diffs)
	}

	// Promote: the candidate becomes enforcing, the ring clears, and
	// the formerly blocked scan is now allowed.
	pb, err = cl.PolicyPromote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Staged || pb.ActiveViews != 3 {
		t.Fatalf("post-promote status: %+v", pb)
	}
	if _, err := cl.Query(ctx, "SELECT Title FROM Events"); err != nil {
		t.Fatalf("promoted policy must allow the event scan: %v", err)
	}
	pb, err = cl.PolicyDiff(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Diffs) != 0 {
		t.Fatalf("promote must clear the diff ring, got %+v", pb.Diffs)
	}
}

func TestPolicyRollbackOverWire(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PolicyStage(ctx, wideViews()); err != nil {
		t.Fatal(err)
	}
	pb, err := cl.PolicyRollback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Staged || pb.ActiveViews != 2 {
		t.Fatalf("post-rollback status: %+v", pb)
	}
	if _, err := cl.Query(ctx, "SELECT Title FROM Events"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("rolled-back candidate must not enforce: %v", err)
	}
}

func TestPolicyStageRejectsBadViews(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PolicyStage(ctx, map[string]string{"VBad": "SELECT nope FROM NoSuchTable"}); err == nil {
		t.Fatal("staging a candidate over unknown tables must fail")
	}
	// A failed stage leaves the lifecycle untouched.
	pb, err := cl.PolicyStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Staged {
		t.Fatalf("failed stage must not leave a candidate: %+v", pb)
	}
}

func TestShadowServerAPI(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StagePolicy(wideViews()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, "SELECT Title FROM Events"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("active policy still enforces: %v", err)
	}
	diffs, last := srv.ShadowDiffs(0)
	if len(diffs) != 1 || last != diffs[0].Seq || diffs[0].Kind != checker.DivergeLoosen {
		t.Fatalf("ShadowDiffs: %+v, last %d", diffs, last)
	}
	if _, err := srv.RollbackPolicy(); err != nil {
		t.Fatal(err)
	}
	if diffs, _ := srv.ShadowDiffs(0); len(diffs) != 0 {
		t.Fatalf("rollback must clear the ring, got %+v", diffs)
	}
}

// The ring is bounded: an over-long trial keeps only the newest
// records, and the monotone sequence exposes the gap.
func TestShadowDiffRingEviction(t *testing.T) {
	srv := testServer(t, Enforce)
	srv.Logf = func(string, ...any) {} // a full ring logs one line per record
	sess := &session{}
	if _, err := srv.StagePolicy(wideViews()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shadowDiffRingMax+10; i++ {
		srv.recordDivergence(&Request{SQL: "SELECT Title FROM Events"}, sess, checker.ShadowDecision{
			Diverged: true, Kind: checker.DivergeLoosen,
		})
	}
	diffs, last := srv.ShadowDiffs(0)
	if len(diffs) != shadowDiffRingMax {
		t.Fatalf("ring length %d, want %d", len(diffs), shadowDiffRingMax)
	}
	if last != uint64(shadowDiffRingMax+10) {
		t.Fatalf("last seq %d, want %d", last, shadowDiffRingMax+10)
	}
	if diffs[0].Seq != 11 {
		t.Fatalf("oldest surviving seq %d, want 11 (10 evicted)", diffs[0].Seq)
	}
}

// TestPolicyDeclaresIndexes pins the census wiring: the server declares
// the secondary index its active policy pins, and staging a candidate
// declares the candidate's, each built by the first read it serves.
func TestPolicyDeclaresIndexes(t *testing.T) {
	s := schema.NewBuilder().
		Table("T").NotNullCol("Id", sqlvalue.Int).NotNullCol("Owner", sqlvalue.Int).NotNullCol("Kind", sqlvalue.Int).PK("Id").Done().
		Table("U").NotNullCol("Id", sqlvalue.Int).NotNullCol("Tag", sqlvalue.Text).PK("Id").Done().
		MustBuild()
	db := engine.New(s)
	db.MustExec("INSERT INTO T (Id, Owner, Kind) VALUES (1, 1, 1), (2, 1, 2), (3, 2, 1)")
	db.MustExec("INSERT INTO U (Id, Tag) VALUES (1, 'x'), (2, 'y')")
	views := map[string]string{"V": "SELECT Id FROM T WHERE Owner = ?MyUId AND Kind = 1"}
	srv := NewServer(db, checker.New(policy.MustNew(s, views)), Enforce)
	builds := srv.MetricsRegistry().Counter("engine.index.builds")
	read := func(q string, want int64) {
		t.Helper()
		if _, err := db.QuerySQL(q, sqlparser.NoArgs); err != nil {
			t.Fatal(err)
		}
		if got := builds.Value(); got != want {
			t.Fatalf("after %s: %d index builds, want %d", q, got, want)
		}
	}
	read("SELECT Id FROM U WHERE Tag = 'x'", 0)
	read("SELECT Id FROM T WHERE Owner = 1 AND Kind = 1", 1)
	read("SELECT Id FROM T WHERE Kind = 2 AND Owner = 1", 1)
	views["W"] = "SELECT Id FROM U WHERE Tag = 'x'"
	if _, err := srv.StagePolicy(views); err != nil {
		t.Fatal(err)
	}
	read("SELECT Id FROM U WHERE Tag = 'y'", 2)
}
