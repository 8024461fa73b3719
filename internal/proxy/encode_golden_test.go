package proxy

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlvalue"
)

// TestEncodeRowsGolden pins the exact wire line produced for a result
// set carrying every engine value kind — NULL, INTEGER, REAL, TEXT,
// BOOLEAN — through the full response encode path (engine values →
// appendResponse). The golden string is the literal v2 frame; if the
// rendering changes, this fails before any client notices.
func TestEncodeRowsGolden(t *testing.T) {
	rows := [][]sqlvalue.Value{
		{sqlvalue.NewNull(), sqlvalue.NewInt(-42), sqlvalue.NewReal(2.5)},
		{sqlvalue.NewText("standup"), sqlvalue.NewBool(true), sqlvalue.NewBool(false)},
		{sqlvalue.NewReal(3), sqlvalue.NewInt(0), sqlvalue.NewText("")},
	}
	resp := Response{
		ID:      9,
		OK:      true,
		Columns: []string{"a", "b", "c"},
		Rows:    rows,
	}
	const want = `{"id":9,"ok":true,"columns":["a","b","c"],` +
		`"rows":[[null,-42,2.5],["standup",true,false],[3,0,""]]}` + "\n"
	buf, ok := appendResponse(nil, &resp)
	if !ok {
		t.Fatalf("fast encoder refused the golden response: %+v", resp)
	}
	if string(buf) != want {
		t.Errorf("encoded frame:\n got  %q\n want %q", buf, want)
	}
	// The hand-rolled frame must also be exactly what encoding/json
	// would have produced (minus the trailing newline convention).
	js, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimRight(buf, "\n"); !bytes.Equal(got, js) {
		t.Errorf("fast encoder diverges from encoding/json:\n fast %s\n json %s", got, js)
	}
}

// FuzzEncodeResponsePooled drives the pooled encode path — a recycled
// Response filled in place, encoded into a reused scratch buffer, then
// released — and requires its bytes to match an unpooled fresh encode
// and encoding/json through Value.MarshalJSON, and to decode back to
// the Values it carried. This is the invariant that makes response
// pooling safe: recycling the struct and the buffer must never leak a
// previous response's bytes into the next frame.
func FuzzEncodeResponsePooled(f *testing.F) {
	f.Add(uint64(1), int64(7), math.Float64bits(2.5), "EId", "x", true)
	f.Add(uint64(0), int64(-1), math.Float64bits(3), "", "", false)
	f.Add(uint64(1<<63), int64(math.MinInt64), math.Float64bits(5e-324), "col", "tab\ttext", true)
	f.Add(uint64(2), int64(1<<53+1), math.Float64bits(1e16), "<b>", "ü&", false)
	var scratch []byte
	f.Fuzz(func(t *testing.T, id uint64, i int64, fbits uint64, col, s string, b bool) {
		cells := []sqlvalue.Value{sqlvalue.NewNull(), sqlvalue.NewInt(i),
			sqlvalue.NewReal(math.Float64frombits(fbits)), sqlvalue.NewText(s), sqlvalue.NewBool(b)}
		fill := func(resp *Response) {
			resp.ID = id
			resp.OK = b
			resp.Columns = []string{col}
			resp.Rows = [][]sqlvalue.Value{cells}
		}

		// Pooled path: recycled struct, reused buffer.
		resp := acquireResponse()
		fill(resp)
		buf, ok := appendResponse(scratch[:0], resp)
		scratch = buf
		pooledBytes := append([]byte(nil), buf...)
		releaseResponse(resp)

		// Unpooled path: fresh struct, fresh buffer.
		fresh := new(Response)
		fill(fresh)
		freshBuf, freshOK := appendResponse(nil, fresh)
		js, jsErr := json.Marshal(fresh)
		if ok != freshOK || ok != (jsErr == nil) {
			t.Fatalf("encoders disagree on representability: pooled %v, fresh %v, encoding/json %v", ok, freshOK, jsErr)
		}
		if !ok {
			return // a NaN/Inf cell has no JSON form
		}
		if !bytes.Equal(pooledBytes, freshBuf) {
			t.Fatalf("pooled encode differs from unpooled:\n pooled %q\n fresh  %q", pooledBytes, freshBuf)
		}
		// encoding/json escapes <, > and & where the fast path need not;
		// otherwise the frames are the same bytes.
		if !strings.ContainsAny(col+s, "<>&") && !bytes.Equal(bytes.TrimRight(pooledBytes, "\n"), js) {
			t.Fatalf("fast encode differs from encoding/json:\n fast %q\n json %q", pooledBytes, js)
		}
		// Both frames decode to the cells sent; a REAL holding an
		// integer comes back as that INTEGER, and TEXT as JSON carries
		// it (invalid UTF-8 coerced).
		want := make([]sqlvalue.Value, len(cells))
		for j, v := range cells {
			want[j] = v
			if x := v.Real(); v.Type() == sqlvalue.Real && x == math.Trunc(x) && x >= math.MinInt64 && x < math.MaxInt64 {
				want[j] = sqlvalue.NewInt(int64(x))
			}
		}
		var text string
		if raw, err := json.Marshal(s); err != nil || json.Unmarshal(raw, &text) != nil {
			t.Fatalf("encoding/json cannot carry %q", s)
		}
		want[3] = sqlvalue.NewText(text)
		for _, frame := range [][]byte{pooledBytes, js} {
			var got Response
			if err := decodeResponseJSON(frame, &got); err != nil {
				t.Fatalf("frame does not decode (%v): %q", err, frame)
			}
			if len(got.Rows) != 1 || !reflect.DeepEqual(got.Rows[0], want) {
				t.Fatalf("frame %q decodes to %#v, want %#v", frame, got.Rows, want)
			}
		}
	})
}
