package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Format compatibility. Version 2 appends the omitted-row count to an
// append record; a version-1 file, written here in the old layout,
// still recovers, and a file newer than the reader is refused.

// encodeAppendV1 is an append record in the version-1 layout: the
// version-2 record of an entry that kept every row, without the
// trailing count.
func encodeAppendV1(t *testing.T, name string, idx uint64, e *trace.Entry) []byte {
	t.Helper()
	if e.Omitted != 0 {
		t.Fatal("a version-1 record cannot omit rows")
	}
	b := encodeAppend(name, idx, e)
	if b[len(b)-1] != 0 {
		t.Fatal("a version-2 append record does not end in its omitted count")
	}
	return b[:len(b)-1]
}

// writeFileV1 writes one segment or checkpoint file with a version-1
// header.
func writeFileV1(t *testing.T, path string, magic [4]byte, records []byte) {
	t.Helper()
	h := []byte{magic[0], magic[1], magic[2], magic[3], 1, 0, 0, 0}
	if err := os.WriteFile(path, append(h, records...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// eventsSchema is the table the test entries read.
func eventsSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("events").
		NotNullCol("id", sqlvalue.Int).
		NotNullCol("uid", sqlvalue.Int).
		PK("id").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// factsOf renders the facts entries derive under s.
func factsOf(s *schema.Schema, entries []trace.Entry) string {
	tr := &trace.Trace{}
	tr.Restore(entries, 0)
	var b strings.Builder
	for _, f := range tr.Facts(s) {
		b.WriteString(f.String() + "\n")
	}
	return b.String()
}

// TestRecoverFormatV1: a version-1 checkpoint and segment, written in
// the old layout, recover into entries that kept every row (Omitted 0)
// and derive the same facts as the entries that were logged; the
// manager then carries on in version 2 over them.
func TestRecoverFormatV1(t *testing.T) {
	dir := t.TempDir()
	want := []trace.Entry{
		testEntry(t, "SELECT id FROM events WHERE uid = ?", sqlparser.PositionalArgs(int64(7)), [][]sqlvalue.Value{intRow(1), intRow(2)}),
		testEntry(t, "SELECT id FROM events WHERE id = 9", sqlparser.NoArgs, nil),
		testEntry(t, "SELECT id, uid FROM events WHERE uid = 7", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(3, 7)}),
	}
	attrs := map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}
	recs := appendRecord(nil, recSession, encodeSession("s", attrs))
	recs = appendRecord(recs, recAppend, encodeAppendV1(t, "s", 0, &want[0]))
	recs = appendRecord(recs, recAppend, encodeAppendV1(t, "s", 1, &want[1]))
	ckpt := appendRecord(nil, recCkptMeta, encodeCkptMeta(&ckptMeta{Cut: 2, Sessions: 1}))
	ckpt = append(ckpt, recs...)
	ckpt = appendRecord(ckpt, recCkptEnd, encodeCkptEnd(5))
	writeFileV1(t, filepath.Join(dir, ckptName(2)), ckptMagic, ckpt)
	writeFileV1(t, filepath.Join(dir, segName(2)), segMagic,
		appendRecord(nil, recAppend, encodeAppendV1(t, "s", 2, &want[2])))

	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointCut != 2 || res.SegmentsReplayed != 1 {
		t.Fatalf("replayed checkpoint cut %d and %d segments, want 2 and 1", res.CheckpointCut, res.SegmentsReplayed)
	}
	s := res.Sessions["s"]
	if s == nil {
		t.Fatal("version-1 session not recovered")
	}
	entriesEqual(t, s.Entries, want)
	sch := eventsSchema(t)
	if got, wantFacts := factsOf(sch, s.Entries), factsOf(sch, want); got != wantFacts || got == "" {
		t.Fatalf("version-1 entries derive\n%s\nwant\n%s", got, wantFacts)
	}

	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, restored, err := m.Session("s", attrs)
	if err != nil || restored != len(want) {
		t.Fatalf("restore: %d entries, %v", restored, err)
	}
	short := testEntry(t, "SELECT id FROM events WHERE uid = 8", sqlparser.NoArgs, nil)
	short.Omitted = 3
	tr.Append(short)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, res.Sessions["s"].Entries, append(want, short))
}

// TestOmittedSurvivesEveryPath: an entry recorded without its rows keeps
// its omitted count through the log, a checkpoint and recovery, and
// still derives no negative fact.
func TestOmittedSurvivesEveryPath(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	elided := func(sql string, n int) trace.Entry {
		e := testEntry(t, sql, sqlparser.NoArgs, nil)
		e.Omitted = n
		return e
	}
	want := []trace.Entry{
		elided("SELECT id FROM events WHERE id = 1", 1),
		testEntry(t, "SELECT id FROM events WHERE uid = 7", sqlparser.NoArgs, [][]sqlvalue.Value{intRow(4)}),
		elided("SELECT id FROM events WHERE id = 2", 140),
	}
	tr.Append(want[0])
	tr.Append(want[1])
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr.Append(want[2])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, res.Sessions["s1"].Entries, want)
	if facts := factsOf(eventsSchema(t), res.Sessions["s1"].Entries); strings.Contains(facts, "NOT") || facts == "" {
		t.Fatalf("recovered entries derive %q: an answer of omitted rows was read as empty", facts)
	}
}

// TestNewerFormatRefused: a segment or checkpoint stamped with version
// 3, newer than this reader, fails recovery instead of being misread;
// versions 1 and 2 pass the header check.
func TestNewerFormatRefused(t *testing.T) {
	for _, magic := range [][4]byte{segMagic, ckptMagic} {
		for v, ok := range map[byte]bool{1: true, 2: true, 3: false} {
			h := []byte{magic[0], magic[1], magic[2], magic[3], v, 0, 0, 0}
			if err := checkFileHeader(h, magic); (err == nil) != ok {
				t.Fatalf("version-%d header: %v", v, err)
			}
		}
	}
	dir := t.TempDir()
	seg := []byte{segMagic[0], segMagic[1], segMagic[2], segMagic[3], 3, 0, 0, 0}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("recovering a version-3 segment: %v", err)
	}

	// A checkpoint is refused too, not skipped as malformed: skipping it
	// would recover without error and lose the session it holds.
	dir = t.TempDir()
	ckpt := []byte{ckptMagic[0], ckptMagic[1], ckptMagic[2], ckptMagic[3], FormatVersion + 1, 0, 0, 0}
	ckpt = appendRecord(ckpt, recCkptMeta, encodeCkptMeta(&ckptMeta{Cut: 1}))
	ckpt = appendRecord(ckpt, recSession, encodeSession("s", map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}))
	ckpt = appendRecord(ckpt, recCkptEnd, encodeCkptEnd(3))
	if err := os.WriteFile(filepath.Join(dir, ckptName(1)), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("recovering a checkpoint of format version %d: %v", FormatVersion+1, err)
	}
}

// TestClusterRecordsRefused: types 9 and 10 were cluster mode's lease
// and shipped records. A segment or a checkpoint that holds either
// fails recovery with an error naming the type and the removed mode,
// rather than being read past or discarded as malformed.
func TestClusterRecordsRefused(t *testing.T) {
	attrs := map[string]sqlvalue.Value{"uid": sqlvalue.NewInt(7)}
	header := func(magic [4]byte) []byte {
		return []byte{magic[0], magic[1], magic[2], magic[3], FormatVersion, 0, 0, 0}
	}
	for _, typ := range []byte{recLease, recShipped} {
		want := fmt.Sprintf("type %d: written by cluster mode, which was removed", typ)
		// The payload is never decoded: the type alone refuses it.
		removed := appendRecord(nil, typ, []byte("origin"))

		dir := t.TempDir()
		seg := appendRecord(header(segMagic), recSession, encodeSession("s", attrs))
		seg = append(seg, removed...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("segment holding a type-%d record: %v", typ, err)
		}

		dir = t.TempDir()
		ckpt := appendRecord(header(ckptMagic), recCkptMeta, encodeCkptMeta(&ckptMeta{Cut: 1}))
		ckpt = append(ckpt, removed...)
		ckpt = appendRecord(ckpt, recCkptEnd, encodeCkptEnd(3))
		if err := os.WriteFile(filepath.Join(dir, ckptName(1)), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("checkpoint holding a type-%d record: %v", typ, err)
		}
	}
}
