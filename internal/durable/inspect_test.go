package durable

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// buildInspectableWAL writes a small WAL with a checkpoint and live
// segments, returning the directory.
func buildInspectableWAL(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("insp", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = ?",
			sqlparser.PositionalArgs(int64(i)), [][]sqlvalue.Value{intRow(int64(i))}))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = ?",
		sqlparser.PositionalArgs(int64(9)), nil))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInspectWalksFilesAndRecords(t *testing.T) {
	dir := buildInspectableWAL(t)
	var files []FileInfo
	var recs []Record
	if err := Inspect(dir, func(fi FileInfo) { files = append(files, fi) },
		func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected at least a checkpoint and a segment, got %d files: %+v", len(files), files)
	}
	sawCkpt, sawSeg := false, false
	for _, fi := range files {
		if fi.Err != "" || fi.Torn {
			t.Fatalf("clean WAL reported damage: %+v", fi)
		}
		switch fi.Kind {
		case "checkpoint":
			sawCkpt = true
		case "segment":
			sawSeg = true
		}
	}
	if !sawCkpt || !sawSeg {
		t.Fatalf("kinds missing: ckpt=%v seg=%v", sawCkpt, sawSeg)
	}
	byType := map[string]int{}
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("record decode error on clean WAL: %+v", r)
		}
		byType[r.Type]++
	}
	for _, want := range []string{"session", "append", "ckpt-meta", "ckpt-end"} {
		if byType[want] == 0 {
			t.Fatalf("no %s records decoded: %v", want, byType)
		}
	}
	// Append records carry session, absolute index, and SQL.
	for _, r := range recs {
		if r.Type == "append" {
			if r.Session != "insp" || r.SQL == "" {
				t.Fatalf("bad append record: %+v", r)
			}
		}
	}
}

func TestInspectReportsTornTail(t *testing.T) {
	dir := buildInspectableWAL(t)
	// Chop bytes off the newest segment to fake a crash mid-record.
	segs, err := listIndexed(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[0]
	for _, s := range segs {
		if s > last {
			last = s
		}
	}
	path := filepath.Join(dir, segName(last))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	torn := false
	if err := Inspect(dir, func(fi FileInfo) {
		if fi.Name == segName(last) {
			torn = fi.Torn && fi.TornBytes > 0
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("Inspect did not report the torn tail")
	}
}

func TestInspectEmptyDir(t *testing.T) {
	dir := t.TempDir()
	n := 0
	if err := Inspect(dir, func(FileInfo) { n++ }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty dir reported %d files", n)
	}
}

// TestInspectCountsOmittedRows: an entry recorded without its rows still
// reports the rows its answer had — in Inspect's Record.Rows (what
// `acwal dump` prints as rows=N) and in the trace's rendering.
func TestInspectCountsOmittedRows(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := m.Session("insp", nil)
	if err != nil {
		t.Fatal(err)
	}
	short := testEntry(t, "SELECT id FROM events WHERE uid = 1", sqlparser.NoArgs, nil)
	short.Omitted = 140
	tr.Append(short)
	tr.Append(testEntry(t, "SELECT id FROM events WHERE uid = 2", sqlparser.NoArgs,
		[][]sqlvalue.Value{intRow(1), intRow(2)}))
	if s := tr.String(); !strings.Contains(s, "-> 140 row(s)") || !strings.Contains(s, "-> 2 row(s)") {
		t.Fatalf("trace renders\n%s", s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var rows []int
	if err := Inspect(dir, nil, func(r Record) {
		if r.Type == "append" {
			rows = append(rows, r.Rows)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, []int{140, 2}) {
		t.Fatalf("append records report rows %v, want [140 2]", rows)
	}
}
