package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// TestNamedParamEntryRecovers: an entry logged under a `:name` SQL text
// recovers with its statement and its facts, after a crash (from the
// segment) and after a graceful close (from the checkpoint). Nothing
// else in the process parses that text first: the statement logged is
// the `?name` spelling's, so recovery's parse of the raw text is the
// first.
func TestNamedParamEntryRecovers(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		sql := "SELECT id FROM events WHERE uid = :u AND id > 0"
		if graceful {
			sql = "SELECT id FROM events WHERE uid = :u AND id > 1"
		}
		e := trace.Entry{
			SQL:     sql,
			Stmt:    sqlparser.MustParseSelect(strings.Replace(sql, ":u", "?u", 1)),
			Args:    sqlparser.Args{Named: map[string]sqlvalue.Value{"u": sqlvalue.NewInt(7)}},
			Columns: []string{"id"},
			Rows:    [][]sqlvalue.Value{intRow(2), intRow(3)},
		}
		dir := t.TempDir()
		m, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := m.Session("s", nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(e)
		if graceful {
			err = m.Close() // final checkpoint
		} else {
			err = m.Log().Close() // the segment alone, as after a crash
		}
		if err != nil {
			t.Fatal(err)
		}

		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("graceful=%v: %v", graceful, err)
		}
		s := res.Sessions["s"]
		if s == nil || len(s.Entries) != 1 {
			t.Fatalf("graceful=%v: recovered %v", graceful, res.Sessions)
		}
		if got := s.Entries[0]; got.Stmt == nil || got.Stmt.SQL() != e.Stmt.SQL() {
			t.Fatalf("graceful=%v: recovered statement %v, want %s", graceful, got.Stmt, e.Stmt.SQL())
		}
		sch := eventsSchema(t)
		if got, want := factsOf(sch, s.Entries), factsOf(sch, []trace.Entry{e}); got != want || got == "" {
			t.Fatalf("graceful=%v: recovered entry derives\n%s\nwant\n%s", graceful, got, want)
		}
	}
}

// TestCheckpointUndecodableRecordFailsRecover: an intact checkpoint
// record that does not decode — here an append whose SQL does not
// parse — fails recovery with its error. Falling back would recover no
// session and no error: no older checkpoint exists, and the segments
// below the cut were compacted away.
func TestCheckpointUndecodableRecordFailsRecover(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, "SELECT id FROM events WHERE uid = 7", sqlparser.NoArgs, nil)
	e.SQL = "SELECT id FROM events WHERE uid = = 7"
	ckpt := []byte{ckptMagic[0], ckptMagic[1], ckptMagic[2], ckptMagic[3], FormatVersion, 0, 0, 0}
	ckpt = appendRecord(ckpt, recCkptMeta, encodeCkptMeta(&ckptMeta{Cut: 2, Sessions: 1}))
	ckpt = appendRecord(ckpt, recSession, encodeSession("s", map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}))
	ckpt = appendRecord(ckpt, recAppend, encodeAppend("s", 0, &e))
	ckpt = appendRecord(ckpt, recCkptEnd, encodeCkptEnd(4))
	if err := os.WriteFile(filepath.Join(dir, ckptName(2)), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dir)
	if err == nil || !strings.Contains(err.Error(), "replayed entry does not parse") {
		var n int
		if res != nil {
			n = len(res.Sessions)
		}
		t.Fatalf("recovering a checkpoint whose append does not parse: %d sessions, error %v", n, err)
	}
}

// fixedClock is a write clock that stands still: the database is at Seq
// and every table was last written at table.
type fixedClock struct{ seq, table uint64 }

func (c fixedClock) Seq() uint64            { return c.seq }
func (c fixedClock) TableSeq(string) uint64 { return c.table }

// TestRestoredEntriesRetiredOnHashChange: a restored entry reads as of
// the startup state when the database's content hash is the logged one,
// so it derives its facts; when the hash differs, it contributes no
// fact, and the manager counts it in durable.recover.retired_entries.
func TestRestoredEntriesRetiredOnHashChange(t *testing.T) {
	e := trace.Entry{
		SQL:     "SELECT id FROM events WHERE uid = 7",
		Stmt:    sqlparser.MustParseSelect("SELECT id FROM events WHERE uid = 7"),
		Columns: []string{"id"},
		Rows:    [][]sqlvalue.Value{intRow(2)},
	}
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy(PolicyID{Fingerprint: "fp", DBHash: 1, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Append(e)
	if err := m.Log().Close(); err != nil { // as after a crash
		t.Fatal(err)
	}
	sch := eventsSchema(t)
	for _, c := range []struct {
		hash    uint64
		facts   int
		retired int64
	}{{hash: 1, facts: 1}, {hash: 2, retired: 1}} {
		opts := testOpts()
		opts.Metrics = obsv.NewRegistry()
		m, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		m.UseTraces(func() *trace.Trace {
			tr := &trace.Trace{}
			tr.SetClock(fixedClock{seq: 9, table: 5})
			return tr
		})
		if err := m.SetPolicy(PolicyID{Fingerprint: "fp", DBHash: c.hash, Seq: 9}); err != nil {
			t.Fatal(err)
		}
		tr, restored, err := m.Session("s", nil)
		if err != nil || restored != 1 {
			t.Fatalf("hash %d: restored %d, %v", c.hash, restored, err)
		}
		if got := len(tr.Facts(sch)); got != c.facts {
			t.Errorf("hash %d: the restored entry derives %d facts, want %d", c.hash, got, c.facts)
		}
		if got := opts.Metrics.Counter("durable.recover.retired_entries").Value(); got != c.retired {
			t.Errorf("hash %d: durable.recover.retired_entries = %d, want %d", c.hash, got, c.retired)
		}
		if err := m.Log().Close(); err != nil {
			t.Fatal(err)
		}
	}
}
