package pgwire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqlvalue"
)

// The DataRow encoder writes typed values directly into the
// connection's output buffer (appendDataRow) instead of materializing a
// string per cell (renderValue). These tests pin both halves of that
// bargain: the wire bytes are exactly the Postgres v3 framing (golden
// tests, byte literals computed by hand from the protocol spec), and
// the direct-append rendering is byte-identical to the renderValue
// reference for every value the engine can produce (equivalence tests
// and fuzz). One buffer is reused across every case, as a connection
// reuses its output buffer across every exchange.

// renderValue is the reference rendering of one cell, from the Go
// value a Value boxes to (Value.Any): its Postgres text form, ok=false
// for NULL.
func renderValue(v any) (s string, ok bool) {
	switch x := v.(type) {
	case nil:
		return "", false
	case int64:
		return strconv.FormatInt(x, 10), true
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), true
	case bool:
		if x {
			return "t", true
		}
		return "f", true
	case string:
		return x, true
	}
	return fmt.Sprint(v), true
}

// mustHex decodes a spaced hex golden literal.
func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad golden literal: %v", err)
	}
	return b
}

// TestDataRowGolden pins the exact wire bytes of a DataRow carrying
// one cell of every engine value kind: NULL, INTEGER, REAL, TEXT, and
// both BOOLEANs. Framing per the v3 protocol: 'D', int32 length
// (includes itself, excludes the type byte), int16 column count, then
// per cell an int32 length (-1 for NULL) and the text rendering.
func TestDataRowGolden(t *testing.T) {
	row := []sqlvalue.Value{sqlvalue.NewNull(), sqlvalue.NewInt(-7), sqlvalue.NewReal(2.5),
		sqlvalue.NewText("hi"), sqlvalue.NewBool(true), sqlvalue.NewBool(false)}
	want := mustHex(t, "44 00000027 0006"+
		" ffffffff"+ // NULL
		" 00000002 2d37"+ // "-7"
		" 00000003 322e35"+ // "2.5"
		" 00000002 6869"+ // "hi"
		" 00000001 74"+ // "t"
		" 00000001 66") // "f"

	// An exchange's replies gather in one buffer: a row must be framed
	// after the messages before it and leave them as they were.
	stale := appendCommandComplete(nil, "stale")
	b := appendDataRow(bytes.Clone(stale), row)
	if !bytes.Equal(b, append(stale, want...)) {
		t.Errorf("DataRow bytes:\n got  %x\n want %x", b[len(stale):], want)
	}

	// Integral REALs render without a decimal point, exactly like the
	// v2 JSON surface renders them.
	b = appendDataRow(b[:0], []sqlvalue.Value{sqlvalue.NewReal(3)})
	want = mustHex(t, "44 0000000b 0001 00000001 33")
	if !bytes.Equal(b, want) {
		t.Errorf("integral REAL DataRow:\n got  %x\n want %x", b, want)
	}
}

// TestRowDescriptionGolden pins the column-description framing the
// driver ingress parses on every SELECT: every column is announced as
// text (OID 25), variable length, text format.
func TestRowDescriptionGolden(t *testing.T) {
	got := appendRowDescription(nil, []string{"EId"})
	want := mustHex(t, "54 0000001c 0001"+
		" 45496400"+ // "EId\0"
		" 00000000 0000"+ // table OID, attnum
		" 00000019"+ // type OID 25 (text)
		" ffff ffffffff 0000") // typlen -1, typmod -1, format text
	if !bytes.Equal(got, want) {
		t.Errorf("RowDescription bytes:\n got  %x\n want %x", got, want)
	}
}

// referenceCell renders one DataRow cell the slow way — renderValue
// into a fresh string, then explicit framing — to serve as the oracle
// for the direct-append encoder.
func referenceCell(v sqlvalue.Value) []byte {
	s, ok := renderValue(v.Any())
	if !ok {
		return []byte{0xff, 0xff, 0xff, 0xff}
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(s)))
	return append(out, s...)
}

// dataRowCell renders one cell through the production path — a
// one-cell DataRow appended to a deliberately dirty, reused buffer — and
// returns the cell's bytes after the row's 7-byte header, having checked
// that header.
func dataRowCell(t testing.TB, b *[]byte, v sqlvalue.Value) []byte {
	*b = appendCommandComplete((*b)[:0], "X")
	start := len(*b)
	*b = appendDataRow(*b, []sqlvalue.Value{v})
	row := (*b)[start:]
	if row[0] != 'D' || int(binary.BigEndian.Uint32(row[1:])) != len(row)-1 || binary.BigEndian.Uint16(row[5:]) != 1 {
		t.Fatalf("DataRow header of %#v: %x", v, row)
	}
	return row[7:]
}

// TestValueTextMatchesRenderValue walks every value shape the engine
// emits and checks the direct-append rendering byte-for-byte against
// the renderValue reference.
func TestValueTextMatchesRenderValue(t *testing.T) {
	var b []byte
	var values []sqlvalue.Value
	for _, v := range []any{
		nil,
		int64(0), int64(42), int64(-42), int64(math.MaxInt64), int64(math.MinInt64),
		float64(0), float64(2.5), float64(-0.125), float64(1e300), float64(5e-324),
		float64(3), float64(-17), // integral REALs
		math.Inf(1), math.Inf(-1), math.NaN(),
		"", "standup", "tab\tand\x00nul", "ünïcödé",
		true, false,
	} {
		values = append(values, sqlvalue.MustFromAny(v))
	}
	for _, v := range values {
		got := dataRowCell(t, &b, v)
		want := referenceCell(v)
		if !bytes.Equal(got, want) {
			t.Errorf("DataRow cell %#v:\n got  %x\n want %x", v, got, want)
		}
	}
}

// FuzzValueTextParity fuzzes the DataRow cell encoder against
// the renderValue reference across every value class, reusing one
// buffer the whole run the way a connection does. kind selects the
// class (0 is NULL); the other arguments supply the value.
func FuzzValueTextParity(f *testing.F) {
	f.Add(uint8(0), int64(0), uint64(0), "")
	f.Add(uint8(1), int64(-9007199254740993), uint64(0), "")
	f.Add(uint8(2), int64(0), math.Float64bits(2.5), "")
	f.Add(uint8(2), int64(0), math.Float64bits(math.Inf(1)), "")
	f.Add(uint8(3), int64(0), uint64(0), "hello\x00world\"quote")
	f.Add(uint8(4), int64(1), uint64(0), "")
	var b []byte
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fbits uint64, s string) {
		var v sqlvalue.Value
		switch kind % 5 {
		case 1:
			v = sqlvalue.NewInt(i)
		case 2:
			v = sqlvalue.NewReal(math.Float64frombits(fbits))
		case 3:
			v = sqlvalue.NewText(s)
		case 4:
			v = sqlvalue.NewBool(i%2 == 0)
		}
		got := dataRowCell(t, &b, v)
		want := referenceCell(v)
		if !bytes.Equal(got, want) {
			t.Fatalf("DataRow cell %#v:\n got  %x\n want %x", v, got, want)
		}
	})
}

// TestDataRowAllocs is the framing half of the allocation contract: a
// DataRow framed from a []sqlvalue.Value into a warmed output buffer
// allocates nothing.
func TestDataRowAllocs(t *testing.T) {
	row := []sqlvalue.Value{sqlvalue.NewInt(1 << 40), sqlvalue.NewText("a post body"),
		sqlvalue.NewReal(2.5), sqlvalue.NewBool(true), sqlvalue.NewNull()}
	var b []byte
	if n := testing.AllocsPerRun(100, func() {
		b = appendDataRow(b[:0], row)
	}); n != 0 {
		t.Errorf("DataRow from typed values: %v allocs, contract is exactly 0", n)
	}
}

// BenchmarkDataRow frames pg_scan's average read: 212 rows of (INT,
// TEXT), the cells of the forum fixture's public posts, into one reused
// buffer. It fails when framing a row allocates.
func BenchmarkDataRow(b *testing.B) {
	rows := make([][]sqlvalue.Value, 212)
	for i := range rows {
		rows[i] = []sqlvalue.Value{sqlvalue.NewInt(int64(2*i + 1)), sqlvalue.NewText("public post by " + strconv.Itoa(i))}
	}
	var buf []byte
	frame := func() {
		buf = buf[:0]
		for _, r := range rows {
			buf = appendDataRow(buf, r)
		}
	}
	if n := testing.AllocsPerRun(10, frame); n != 0 {
		b.Fatalf("framing %d rows allocates %v times, contract is 0", len(rows), n)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}
