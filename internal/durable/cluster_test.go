package durable

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// captureShip collects everything a manager's ship hook emits.
type captureShip struct {
	names    []string
	types    []byte
	payloads [][]byte
}

func (c *captureShip) hook(name string, typ byte, payload []byte) {
	c.names = append(c.names, name)
	c.types = append(c.types, typ)
	// The hook contract says the payload is only valid during the
	// call; copy like a real shipper would.
	c.payloads = append(c.payloads, append([]byte(nil), payload...))
}

// TestShipHookEmitsReplayablePayloads is the core WAL-shipping parity
// property: the bytes the ship hook hands out, applied verbatim on a
// follower, recover into exactly the session the owner logged.
func TestShipHookEmitsReplayablePayloads(t *testing.T) {
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	owner, err := Open(ownerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var cap captureShip
	owner.SetShipHook(cap.hook)

	attrs := map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}
	tr, _, err := owner.Session("s1", attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Entry{
		testEntry(t, "SELECT id FROM events WHERE uid = ?", sqlparser.Args{Positional: intRow(7)},
			[][]sqlvalue.Value{intRow(1), intRow(2)}),
		testEntry(t, "SELECT id FROM events WHERE id = 99", sqlparser.NoArgs, nil),
	}
	for _, e := range want {
		tr.Append(e)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 3 { // 1 session + 2 appends
		t.Fatalf("ship hook fired %d times, want 3", len(cap.payloads))
	}
	if cap.types[0] != recSession || cap.types[1] != recAppend {
		t.Fatalf("ship types = %v", cap.types)
	}
	for i, n := range cap.names {
		if n != "s1" {
			t.Fatalf("ship %d session = %q", i, n)
		}
	}

	follower, err := Open(followerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cap.payloads {
		if err := follower.ApplyShipped("nodeA", cap.types[i], cap.payloads[i]); err != nil {
			t.Fatalf("apply shipped %d: %v", i, err)
		}
	}
	follower.mu.Lock()
	pending := len(follower.recovered)
	follower.mu.Unlock()
	if pending != 1 {
		t.Fatalf("pending sessions = %d, want 1", pending)
	}
	// Takeover is the ordinary recovered-session restore path.
	ftr, restored, err := follower.Session("s1", attrs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(want) {
		t.Fatalf("restored %d entries, want %d", restored, len(want))
	}
	got, _ := ftr.SnapshotState()
	entriesEqual(t, got, want)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// And the wrapped records are durable: a restart of the follower
	// still has the session.
	follower2, err := Open(followerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	s := follower2.Recovery().Sessions["s1"]
	if s == nil {
		t.Fatalf("shipped session lost across restart; have %v", follower2.Recovery().Sessions)
	}
	entriesEqual(t, s.Entries, want)
}

// TestApplyShippedSurvivesCheckpoint: checkpoints persist recovered
// (not-yet-claimed) sessions, so shipped state outlives compaction.
func TestApplyShippedSurvivesCheckpoint(t *testing.T) {
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	owner, err := Open(ownerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var cap captureShip
	owner.SetShipHook(cap.hook)
	tr, _, err := owner.Session("s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Entry{testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, nil)}
	tr.Append(want[0])
	owner.Close()

	follower, err := Open(followerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cap.payloads {
		if err := follower.ApplyShipped("nodeA", cap.types[i], cap.payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	follower.Close()

	follower2, err := Open(followerDir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	s := follower2.Recovery().Sessions["s1"]
	if s == nil {
		t.Fatal("shipped session lost across checkpoint + restart")
	}
	entriesEqual(t, s.Entries, want)
}

// TestApplyShippedToleratesGaps: a dropped batch (shipper backpressure)
// must not poison the follower — the session's history restarts at the
// gap and the gap is counted.
func TestApplyShippedToleratesGaps(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	e0 := testEntry(t, "SELECT id FROM events WHERE id = 0", sqlparser.NoArgs, nil)
	e2 := testEntry(t, "SELECT id FROM events WHERE id = 2", sqlparser.NoArgs, nil)
	if err := m.ApplyShipped("nodeA", recSession, encodeSession("s1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyShipped("nodeA", recAppend, encodeAppend("s1", 0, &e0)); err != nil {
		t.Fatal(err)
	}
	// Index 1 never arrives; index 2 lands.
	if err := m.ApplyShipped("nodeA", recAppend, encodeAppend("s1", 2, &e2)); err != nil {
		t.Fatal(err)
	}
	// An append for a session never declared here (mid-stream
	// followership change) implicitly creates it.
	if err := m.ApplyShipped("nodeA", recAppend, encodeAppend("s2", 5, &e0)); err != nil {
		t.Fatal(err)
	}
	// Raw close (no checkpoint): recovery must replay the wrapped
	// shipped records themselves and tolerate the gap.
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := rec.Sessions["s1"]
	if s1 == nil || s1.Base != 2 || len(s1.Entries) != 1 {
		t.Fatalf("gap handling: s1 = %+v", s1)
	}
	entriesEqual(t, s1.Entries, []trace.Entry{e2})
	s2 := rec.Sessions["s2"]
	if s2 == nil || s2.Base != 5 || len(s2.Entries) != 1 {
		t.Fatalf("undeclared session: s2 = %+v", s2)
	}
	if rec.ShippedGaps == 0 {
		t.Fatal("gap was not counted")
	}
}

// TestLeaseTermsPersist: terms are monotone, survive restart, and
// survive checkpoint compaction.
func TestLeaseTermsPersist(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RecordLease("nodeA", 3); err != nil {
		t.Fatal(err)
	}
	if err := m.RecordLease("nodeA", 2); err != nil { // stale: no regression
		t.Fatal(err)
	}
	if err := m.RecordLease("nodeB", 1); err != nil {
		t.Fatal(err)
	}
	if got := m.LeaseTerm("nodeA"); got != 3 {
		t.Fatalf("live term = %d, want 3", got)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.LeaseTerm("nodeA"); got != 3 {
		t.Fatalf("recovered term(nodeA) = %d, want 3", got)
	}
	if got := m2.LeaseTerm("nodeB"); got != 1 {
		t.Fatalf("recovered term(nodeB) = %d, want 1", got)
	}
	if got := m2.LeaseTerm("nodeC"); got != 0 {
		t.Fatalf("unknown origin term = %d, want 0", got)
	}
}

// TestInspectRendersClusterRecords: the acwal surface decodes the new
// record types — lease grants and shipped session/append records —
// with their origin attached.
func TestInspectRendersClusterRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RecordLease("nodeA", 4); err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(1)})
	if err := m.ApplyShipped("nodeA", recSession, encodeSession("s9", map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(9)})); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyShipped("nodeA", recAppend, encodeAppend("s9", 0, &e)); err != nil {
		t.Fatal(err)
	}
	// Close the raw log without the shutdown checkpoint: compaction
	// rewrites shipped records as plain session/append state, and this
	// test wants the wrapped on-disk form.
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}

	byType := map[string][]Record{}
	if err := Inspect(dir, nil, func(rec Record) {
		if rec.Err != "" {
			t.Fatalf("record %s #%d: %s", rec.File, rec.Seq, rec.Err)
		}
		byType[rec.Type] = append(byType[rec.Type], rec)
	}); err != nil {
		t.Fatal(err)
	}

	leases := byType["lease"]
	if len(leases) != 1 {
		t.Fatalf("lease records = %d, want 1 (have types %v)", len(leases), keysOf(byType))
	}
	if leases[0].Index != 4 || !strings.Contains(leases[0].Detail, "origin=nodeA") {
		t.Fatalf("lease rendered as %+v", leases[0])
	}
	ss := byType["shipped-session"]
	if len(ss) != 1 || ss[0].Session != "s9" || !strings.Contains(ss[0].Detail, "origin=nodeA") {
		t.Fatalf("shipped-session rendered as %+v", ss)
	}
	sa := byType["shipped-append"]
	if len(sa) != 1 || sa[0].Session != "s9" || sa[0].Index != 0 || sa[0].Rows != 1 ||
		!strings.Contains(sa[0].Detail, "origin=nodeA") {
		t.Fatalf("shipped-append rendered as %+v", sa)
	}
	if sa[0].SQL != e.SQL {
		t.Fatalf("shipped-append SQL = %q, want %q", sa[0].SQL, e.SQL)
	}
}

func keysOf(m map[string][]Record) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
