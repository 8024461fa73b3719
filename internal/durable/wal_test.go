package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// testEntry builds a real trace entry (parsed statement included) for
// a query the repo's grammar accepts.
func testEntry(t testing.TB, sql string, args sqlparser.Args, rows [][]sqlvalue.Value) trace.Entry {
	t.Helper()
	stmt, err := sqlparser.ParseSelectNorm(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	cols := make([]string, 0)
	if len(rows) > 0 {
		for i := range rows[0] {
			cols = append(cols, fmt.Sprintf("c%d", i))
		}
	}
	return trace.Entry{SQL: sql, Stmt: stmt, Args: args, Columns: cols, Rows: rows}
}

func intRow(vs ...int64) []sqlvalue.Value {
	out := make([]sqlvalue.Value, len(vs))
	for i, v := range vs {
		out[i] = sqlvalue.NewInt(v)
	}
	return out
}

func entriesEqual(t *testing.T, got, want []trace.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("entry count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].SQL != want[i].SQL {
			t.Fatalf("entry %d SQL = %q, want %q", i, got[i].SQL, want[i].SQL)
		}
		if !reflect.DeepEqual(got[i].Rows, want[i].Rows) || got[i].Omitted != want[i].Omitted {
			t.Fatalf("entry %d rows = %v +%d omitted, want %v +%d", i, got[i].Rows, got[i].Omitted, want[i].Rows, want[i].Omitted)
		}
		if !reflect.DeepEqual(got[i].Args.Positional, want[i].Args.Positional) {
			t.Fatalf("entry %d args = %v, want %v", i, got[i].Args.Positional, want[i].Args.Positional)
		}
	}
}

func testOpts() Options {
	return Options{Fsync: FsyncOff} // tests don't need real durability
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Metrics = obsv.NewRegistry()
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]sqlvalue.Value{
		"uid":  sqlvalue.NewInt(7),
		"name": sqlvalue.NewText("alice"),
		"nul":  sqlvalue.NewNull(),
		"ok":   sqlvalue.NewBool(true),
		"frac": sqlvalue.NewReal(2.5),
	}
	tr, restored, err := m.Session("s1", attrs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("fresh session restored %d entries", restored)
	}
	want := []trace.Entry{
		testEntry(t, "SELECT id FROM events WHERE uid = ?", sqlparser.Args{Positional: intRow(7)},
			[][]sqlvalue.Value{intRow(1), intRow(2)}),
		testEntry(t, "SELECT id FROM events WHERE id = 99", sqlparser.NoArgs, nil),
	}
	for _, e := range want {
		tr.Append(e)
	}
	if err := m.SetPolicy(PolicyID{Fingerprint: "fp-1", Views: map[string]string{"v": "SELECT id FROM events"}, DBHash: 42}); err != nil {
		t.Fatal(err)
	}
	// The registry twins the log's own counters.
	st := m.Log().Stats()
	if got := opts.Metrics.Counter("durable.appends").Value(); got != st.Appends || got == 0 {
		t.Fatalf("durable.appends = %d, the log counted %d", got, st.Appends)
	}
	if got := opts.Metrics.Counter("durable.appended.bytes").Value(); got != st.AppendedBytes || got == 0 {
		t.Fatalf("durable.appended.bytes = %d, the log counted %d", got, st.AppendedBytes)
	}
	if err := m.Log().Close(); err != nil { // close WITHOUT checkpoint: recovery reads raw segments
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Sessions["s1"]
	if s == nil {
		t.Fatalf("session s1 not recovered; have %v", rec.Sessions)
	}
	entriesEqual(t, s.Entries, want)
	if s.Base != 0 {
		t.Fatalf("base = %d, want 0", s.Base)
	}
	if !reflect.DeepEqual(s.Attrs, attrs) {
		t.Fatalf("attrs = %v, want %v", s.Attrs, attrs)
	}
	if rec.Policy == nil || rec.Policy.Fingerprint != "fp-1" || rec.Policy.DBHash != 42 {
		t.Fatalf("policy = %+v", rec.Policy)
	}
	if rec.Policy.Views["v"] != "SELECT id FROM events" {
		t.Fatalf("policy views = %v", rec.Policy.Views)
	}
	if rec.TornTailBytes != 0 {
		t.Fatalf("clean shutdown reported torn tail of %d bytes", rec.TornTailBytes)
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 512 // force many rotations
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Entry
	for i := 0; i < 50; i++ {
		e := testEntry(t, "SELECT id FROM events WHERE uid = ?",
			sqlparser.Args{Positional: intRow(int64(i))}, [][]sqlvalue.Value{intRow(int64(i))})
		want = append(want, e)
		tr.Append(e)
	}
	if m.Stats().Rotations == 0 {
		t.Fatal("expected segment rotations")
	}
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listIndexed(dir, segPrefix, segSuffix)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SegmentsReplayed != len(segs) {
		t.Fatalf("replayed %d segments, want %d", rec.SegmentsReplayed, len(segs))
	}
	entriesEqual(t, rec.Sessions["s"].Entries, want)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(1)})
	tr.Append(e)
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: valid prefix + a torn record (good
	// length header, truncated payload).
	segs, _ := listIndexed(dir, segPrefix, segSuffix)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	full := appendRecord(nil, recAppend, encodeAppend("s", 1, &e))
	torn := full[:len(full)-5]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTailBytes != int64(len(torn)) {
		t.Fatalf("TornTailBytes = %d, want %d", rec.TornTailBytes, len(torn))
	}
	entriesEqual(t, rec.Sessions["s"].Entries, []trace.Entry{e})
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Recovery after truncation is clean.
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTailBytes != 0 {
		t.Fatalf("second recovery still torn: %d bytes", rec2.TornTailBytes)
	}
}

func TestTornRecordInEarlierSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 256
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = ?",
			sqlparser.Args{Positional: intRow(int64(i))}, nil))
	}
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listIndexed(dir, segPrefix, segSuffix)
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of the FIRST segment: corruption, not a
	// torn tail.
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("recovery over a corrupt non-final segment should fail")
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Fsync = FsyncAlways // exercise the real ack path
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, perSession = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		tr, _, err := m.Session(fmt.Sprintf("s%d", s), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tr *trace.Trace, s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = ?",
					sqlparser.Args{Positional: intRow(int64(s*1000 + i))}, [][]sqlvalue.Value{intRow(int64(i))}))
			}
		}(tr, s)
	}
	wg.Wait()
	st := m.Stats()
	if st.Appends != sessions*perSession+sessions { // + session records
		t.Fatalf("appends = %d, want %d", st.Appends, sessions*perSession+sessions)
	}
	if st.Batches > st.Appends {
		t.Fatalf("batches (%d) > appends (%d)", st.Batches, st.Appends)
	}
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != sessions {
		t.Fatalf("recovered %d sessions, want %d", len(rec.Sessions), sessions)
	}
	for name, s := range rec.Sessions {
		if len(s.Entries) != perSession {
			t.Fatalf("session %s recovered %d entries, want %d", name, len(s.Entries), perSession)
		}
	}
}

// TestFirstInLineCommitsForAll pins the group-commit rule: the first
// appender to find no commit running commits everything queued so far.
// One appender commits alone and stalls on the held segment lock while
// seven more queue behind it; once the lock is released, one of the
// seven commits all seven in one batch.
func TestFirstInLineCommitsForAll(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Append(recSession, encodeSession(fmt.Sprintf("s%d", i), nil))
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.qmu.Lock()
		committing, queued := l.committing, l.npending
		l.qmu.Unlock()
		if committing && queued == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("committing = %v with %d queued, want one commit running and %d queued behind it", committing, queued, n-1)
		}
	}
	l.mu.Unlock()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Batches != 2 || st.Appends != n {
		t.Fatalf("batches = %d, appends = %d; want 2 and %d: one commit for the first, one for the seven queued behind it", st.Batches, st.Appends, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Sessions), n)
	}
}

// TestIntervalSyncsIdleTail: under FsyncInterval a commit arms the
// fsync timer, so one append with no traffic after it is still
// fsynced within a few intervals, and a log that appends nothing
// issues no fsync at all.
func TestIntervalSyncsIdleTail(t *testing.T) {
	opts := Options{Fsync: FsyncInterval, FsyncInterval: 2 * time.Millisecond}
	busy, err := OpenLog(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := OpenLog(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := busy.Append(recSession, encodeSession("s", nil)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * opts.FsyncInterval)
	for busy.Stats().Fsyncs == 0 && time.Now().Before(deadline) {
		time.Sleep(opts.FsyncInterval)
	}
	time.Sleep(time.Until(deadline))
	if got := busy.Stats().Fsyncs; got < 1 {
		t.Fatalf("fsyncs after an idle tail = %d, want >= 1", got)
	}
	if got := idle.Stats().Fsyncs; got != 0 {
		t.Fatalf("a log that appended nothing issued %d fsyncs", got)
	}
	if err := busy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 512
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy(PolicyID{Fingerprint: "fp", DBHash: 9}); err != nil {
		t.Fatal(err)
	}
	var want []trace.Entry
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			e := testEntry(t, "SELECT id FROM events WHERE uid = ?",
				sqlparser.Args{Positional: intRow(int64(len(want)))}, [][]sqlvalue.Value{intRow(int64(len(want)))})
			want = append(want, e)
			tr.Append(e)
		}
	}
	appendN(40)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().CompactedSegments; got == 0 {
		t.Fatal("checkpoint compacted no segments")
	}
	appendN(10) // post-checkpoint tail
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointCut == 0 {
		t.Fatal("recovery used no checkpoint")
	}
	entriesEqual(t, rec.Sessions["s"].Entries, want)
	if rec.Policy == nil || rec.Policy.Fingerprint != "fp" {
		t.Fatalf("policy lost across checkpoint: %+v", rec.Policy)
	}
	if rec.Sessions["s"].Attrs["uid"].Int() != 1 {
		t.Fatalf("attrs lost across checkpoint: %v", rec.Sessions["s"].Attrs)
	}
}

func TestManagerReopenRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Entry
	for i := 0; i < 5; i++ {
		e := testEntry(t, "SELECT id FROM events WHERE uid = ?",
			sqlparser.Args{Positional: intRow(int64(i))}, [][]sqlvalue.Value{intRow(int64(i))})
		want = append(want, e)
		tr.Append(e)
	}
	if err := m.Close(); err != nil { // full close: final checkpoint
		t.Fatal(err)
	}

	m2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.RecoveredSessionCount() != 1 || m2.RecoveredEntryCount() != 5 {
		t.Fatalf("recovered %d sessions / %d entries", m2.RecoveredSessionCount(), m2.RecoveredEntryCount())
	}
	tr2, restored, err := m2.Session("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 5 {
		t.Fatalf("restored = %d, want 5", restored)
	}
	got, _ := tr2.SnapshotState()
	entriesEqual(t, got, want)
	if tr2.NextIndex() != 5 {
		t.Fatalf("NextIndex = %d, want 5", tr2.NextIndex())
	}
	// Appends continue at the right absolute index and survive another
	// cycle.
	e := testEntry(t, "SELECT id FROM events WHERE id = 77", sqlparser.NoArgs, nil)
	tr2.Append(e)
	want = append(want, e)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	tr3, restored, err := m3.Session("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 6 {
		t.Fatalf("second restore = %d, want 6", restored)
	}
	got, _ = tr3.SnapshotState()
	entriesEqual(t, got, want)
}

func TestHistoryWindowAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	windowed := func() *trace.Trace {
		tr := &trace.Trace{}
		tr.SetWindow(3)
		return tr
	}
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.UseTraces(windowed)
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = ?",
			sqlparser.Args{Positional: intRow(int64(i))}, nil))
	}
	if tr.Len() != 3 || tr.Evicted() != 7 {
		t.Fatalf("window live state: len=%d evicted=%d", tr.Len(), tr.Evicted())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	m2.UseTraces(windowed)
	tr2, restored, err := m2.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored = %d, want 3 (window)", restored)
	}
	if tr2.NextIndex() != 10 {
		t.Fatalf("NextIndex = %d, want 10 (absolute indices survive the window)", tr2.NextIndex())
	}
	entries, _ := tr2.SnapshotState()
	if got := entries[len(entries)-1].Args.Positional[0].Int(); got != 9 {
		t.Fatalf("last restored entry arg = %d, want 9", got)
	}
}

func TestDuplicateSessionNameSharesTrace(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr1, _, err := m.Session("shared", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr1.Append(testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, nil))
	tr2, restored, err := m.Session("shared", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != tr1 {
		t.Fatal("same durable name must return the same live trace")
	}
	if restored != 1 {
		t.Fatalf("re-claim reported %d entries, want 1", restored)
	}
}

func TestRecoverUnclaimedSessionSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("dormant", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Append(testEntry(t, "SELECT id FROM events WHERE id = 5", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(5)}))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen but never re-claim "dormant"; checkpoint (which compacts
	// its pre-crash data) must carry it forward anyway.
	m2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	_, restored, err := m3.Session("dormant", nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("dormant session lost across checkpoints: restored=%d", restored)
	}
}

func TestOpenLogNeverReusesIndices(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		l, err := OpenLog(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recSession, encodeSession(fmt.Sprintf("s%d", i), nil)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want 3 distinct", segs)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 3 {
		t.Fatalf("recovered %d sessions, want 3", len(rec.Sessions))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("roundtrip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// Two connections declaring the same durable session name share one
// trace, and their concurrent appends must reach the WAL in index
// order — replay treats a skipped-ahead index as corruption. This is
// the regression test for the hook running outside the trace lock,
// which let index N+1 enqueue before N.
func TestSharedSessionConcurrentAppendsRecover(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Fsync = FsyncAlways // real ack path maximizes interleaving
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const conns, perConn = 6, 40
	e := testEntry(t, "SELECT id FROM events WHERE uid = ?",
		sqlparser.Args{Positional: intRow(1)}, [][]sqlvalue.Value{intRow(1)})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		tr, _, err := m.Session("shared", nil) // every conn gets the same trace
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tr *trace.Trace) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				tr.Append(e)
			}
		}(tr)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recovery after concurrent shared-session appends: %v", err)
	}
	s := rec.Sessions["shared"]
	if s == nil || len(s.Entries) != conns*perConn {
		t.Fatalf("recovered %v entries, want %d", s, conns*perConn)
	}
}

// Appends racing Close must all return — success or a closed error —
// never hang. An appender queued behind the last commit when Close
// lands must wake and report the log closed, not wait for a commit
// that will never run.
func TestAppendCloseRaceDoesNotHang(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		l, err := OpenLog(t.TempDir(), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 25; i++ {
					if err := l.Append(recAppend, []byte("payload")); err != nil {
						return // closed: expected once Close wins
					}
				}
			}()
		}
		close(start)
		_ = l.Close()
		wg.Wait() // hangs forever (test timeout) if a request is stranded
	}
}

// A closed log must refuse to rotate: a background checkpoint that
// loses the shutdown race would otherwise create a stray segment
// after Close.
func TestRotateForCheckpointAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RotateForCheckpoint(); err == nil {
		t.Fatal("RotateForCheckpoint on a closed log should fail")
	}
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("closed log grew segments: %v", segs)
	}
}

// Close with auto-checkpointing under concurrent appends: Close must
// wait out any in-flight background checkpoint, take the slot, and
// leave no stray post-shutdown segment behind.
func TestCloseWaitsForBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.CheckpointEvery = 3 // force frequent background checkpoints
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, "SELECT id FROM events WHERE uid = ?",
		sqlparser.Args{Positional: intRow(1)}, [][]sqlvalue.Value{intRow(1)})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tr, _, err := m.Session(fmt.Sprintf("s%d", g), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tr *trace.Trace) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tr.Append(e)
			}
		}(tr)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing may touch the directory after Close returns.
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("directory changed after Close: %d -> %d files", len(before), len(after))
	}
	if _, err := Recover(dir); err != nil {
		t.Fatalf("recovery after close: %v", err)
	}
}

// TestFailedWriteFailsClosed: a batch write that fails after the kernel
// took half of it leaves a torn record in the segment. The log must
// refuse every later append — one written after the torn record would
// be acknowledged and then dropped by recovery's scan — and recovery
// must return exactly the acknowledged records.
func TestFailedWriteFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a := testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(1)})
	b := testEntry(t, "SELECT id FROM events WHERE id = 2", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(2)})
	if err := l.Append(recSession, encodeSession("s", nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recAppend, encodeAppend("s", 0, &a)); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected write fault")
	l.writeBatch = func(f *os.File, buf []byte) (int, error) {
		n, _ := f.Write(buf[:len(buf)/2])
		return n, injected
	}
	if err := l.Append(recAppend, encodeAppend("s", 1, &b)); !errors.Is(err, injected) {
		t.Fatalf("append over a failing write: %v, want the injected fault", err)
	}
	l.writeBatch = (*os.File).Write
	if err := l.Append(recAppend, encodeAppend("s", 1, &b)); !errors.Is(err, injected) {
		t.Fatalf("append after a failed write: %v, want the sticky fault", err)
	}
	if _, err := l.RotateForCheckpoint(); !errors.Is(err, injected) {
		t.Fatalf("rotate after a failed write: %v, want the sticky fault", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTailBytes == 0 {
		t.Fatal("the half-written record was not seen as a torn tail")
	}
	entriesEqual(t, rec.Sessions["s"].Entries, []trace.Entry{a})

	// The directory stays recoverable across a restart that appends.
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Append(b)
	if err := m.Log().Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err = Recover(dir); err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, rec.Sessions["s"].Entries, []trace.Entry{a, b})
}

// TestFailedSyncFailsClosed: a failed fsync may have dropped the dirty
// pages it was asked to write, so a later fsync that succeeds would
// acknowledge records sitting after a hole. The batch that met the
// failure gets it, every later append and rotation returns it, and
// recovery returns the acknowledged records and nothing appended
// after the failure.
func TestFailedSyncFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a := testEntry(t, "SELECT id FROM events WHERE id = 1", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(1)})
	b := testEntry(t, "SELECT id FROM events WHERE id = 2", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(2)})
	c := testEntry(t, "SELECT id FROM events WHERE id = 3", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(3)})
	if err := l.Append(recSession, encodeSession("s", nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recAppend, encodeAppend("s", 0, &a)); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected fsync fault")
	l.syncSegment = func(*os.File) error { return injected }
	if err := l.Append(recAppend, encodeAppend("s", 1, &b)); !errors.Is(err, injected) {
		t.Fatalf("append over a failing fsync: %v, want the injected fault", err)
	}
	l.syncSegment = (*os.File).Sync
	if err := l.Append(recAppend, encodeAppend("s", 2, &c)); !errors.Is(err, injected) {
		t.Fatalf("append after a failed fsync: %v, want the sticky fault", err)
	}
	if _, err := l.RotateForCheckpoint(); !errors.Is(err, injected) {
		t.Fatalf("rotate after a failed fsync: %v, want the sticky fault", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// b was written before its fsync failed and, with no crash, is
	// still in the file; c was never written.
	entriesEqual(t, rec.Sessions["s"].Entries, []trace.Entry{a, b})
}
