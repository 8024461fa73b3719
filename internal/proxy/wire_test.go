package proxy

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/sqlvalue"
)

// The hand-rolled wire codec is an optimization, not a format: every
// message it encodes must be byte-compatible JSON, and every message
// it decodes must produce exactly what encoding/json would. These
// tests pin that equivalence; anything the fast path cannot represent
// must bail (second return false) rather than guess.

func TestWireEncodeResponseMatchesJSON(t *testing.T) {
	cases := []Response{
		{ID: 7, OK: true, Proto: 2},
		{OK: true},
		{ID: 1, OK: true, Columns: []string{"EId", "Title"}, Rows: [][]sqlvalue.Value{
			{sqlvalue.NewInt(3), sqlvalue.NewText("standup")}, {sqlvalue.NewInt(4), sqlvalue.NewText("retro")}}},
		{ID: 2, OK: true, Affected: 5},
		{ID: 3, OK: false, Blocked: true, Reason: "not covered by any view", Code: "blocked"},
		{ID: 9, OK: true, Rows: [][]sqlvalue.Value{{sqlvalue.NewNull(), sqlvalue.NewBool(true), sqlvalue.NewReal(1.5), sqlvalue.NewInt(-12)}}},
		{ID: 10, OK: true, Columns: []string{"n"}, Rows: [][]sqlvalue.Value{}},
		{ID: 11, OK: true, Columns: []string{"quote\"here"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewText("tab\tnewline\n")}}},
	}
	for i, resp := range cases {
		buf, ok := appendResponse(nil, &resp)
		if !ok {
			t.Fatalf("case %d: fast encoder refused a representable response: %+v", i, resp)
		}
		want, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimRight(buf, "\n"); !bytes.Equal(got, want) {
			t.Errorf("case %d:\n fast %s\n json %s", i, got, want)
		}
	}
}

func TestWireEncodeResponseBailsOnComplex(t *testing.T) {
	cases := []Response{
		{ID: 1, Error: "boom"},
		{ID: 2, OK: true, Stats: &StatsBody{}},
		{ID: 3, OK: true, Batch: []Response{{OK: true}}},
		{ID: 4, OK: true, Rows: [][]sqlvalue.Value{{sqlvalue.NewReal(math.NaN())}}},
	}
	for i, resp := range cases {
		if _, ok := appendResponse(nil, &resp); ok {
			t.Errorf("case %d: fast encoder should have bailed: %+v", i, resp)
		}
	}
}

func TestWireEncodeRequestMatchesJSON(t *testing.T) {
	cases := []Request{
		{Op: "query", ID: 3, SID: 1, SQL: "SELECT EId FROM Attendance WHERE UId = ?", Args: []any{int64(4)}},
		{Op: "hello", MaxProto: 2, Session: map[string]any{"MyUId": int64(7)}},
		{Op: "cancel", ID: 12, Target: 9},
		{Op: "exec", ID: 4, SQL: "UPDATE Users SET Name = ? WHERE UId = ?", Args: []any{"bob", int64(2)}, TimeoutMillis: 250},
		{Op: "stats"},
	}
	for i, req := range cases {
		buf, ok := appendRequest(nil, &req)
		if !ok {
			t.Fatalf("case %d: fast encoder refused a representable request: %+v", i, req)
		}
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimRight(buf, "\n"); !bytes.Equal(got, want) {
			t.Errorf("case %d:\n fast %s\n json %s", i, got, want)
		}
	}
}

// decodeBothRequest decodes a line both ways: the fast decoder must
// agree field-for-field with the normalized reflective fallback
// (decodeRequestJSON) on the same line. The fallback — not raw encoding/json — is the reference
// because both paths must agree on number typing: integral tokens
// decode as int64/uint64 so values past 2^53 survive, where plain
// encoding/json would round them through float64.
func decodeBothRequest(t *testing.T, line []byte) (fast Request, ok bool, slow Request) {
	t.Helper()
	ok = decodeRequest(line, &fast)
	if err := decodeRequestJSON(line, &slow); err != nil {
		t.Fatalf("reference decode failed: %v\n%s", err, line)
	}
	return
}

func TestWireDecodeRequestMatchesJSON(t *testing.T) {
	lines := []string{
		`{"op":"query","id":3,"sid":1,"sql":"SELECT 1","args":[4,"x",true,null]}`,
		`{"op":"hello","maxProto":2,"session":{"MyUId":7}}`,
		`{"op":"cancel","id":5,"target":3}`,
		`{"op":"exec","sql":"DELETE FROM T","timeoutMillis":100}`,
		`{"op":"query","sql":"SELECT 1","named":{"a":1}}`,
		`{"op":"query","sql":"SELECT 1","args":[9007199254740993,-9007199254740993,18446744073709551615,1.5,-0.25,2e3]}`,
	}
	for _, l := range lines {
		fast, ok, slow := decodeBothRequest(t, []byte(l))
		if !ok {
			t.Errorf("fast decoder refused: %s", l)
			continue
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("decode mismatch on %s:\n fast %+v\n json %+v", l, fast, slow)
		}
	}
}

func TestWireDecodeRequestBailsOnComplex(t *testing.T) {
	lines := []string{
		`{"op":"batch","batch":[{"op":"query","sql":"SELECT 1"}]}`,
		`{"op":"query","sql":"quote \" inside"}`,
		`{"op":"query","args":[{"nested":1}]}`,
		`{"op":"query","sql":"SELECT 1"`,
	}
	for _, l := range lines {
		var req Request
		if decodeRequest([]byte(l), &req) {
			t.Errorf("fast decoder should have bailed: %s", l)
		}
	}
}

func TestWireDecodeResponseMatchesJSON(t *testing.T) {
	lines := []string{
		`{"id":7,"ok":true,"proto":2}`,
		`{"id":1,"ok":true,"columns":["a","b","c"],"rows":[[1,"x",true],[2,null,false]]}`,
		`{"id":3,"ok":false,"code":"blocked","blocked":true,"reason":"no view"}`,
		`{"id":4,"ok":false,"error":"parse: bad","code":"parse"}`,
		`{"id":5,"ok":true,"affected":2}`,
		`{"id":6,"ok":true,"rows":[[9007199254740993,18446744073709551615,-9007199254740993,0.5]]}`,
	}
	for _, l := range lines {
		var fast, slow Response
		if !decodeResponse([]byte(l), &fast) {
			t.Errorf("fast decoder refused: %s", l)
			continue
		}
		if err := decodeResponseJSON([]byte(l), &slow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("decode mismatch on %s:\n fast %+v\n json %+v", l, fast, slow)
		}
	}
}

// TestWireBigIntegerRoundTrip pins the satellite bugfix: integers past
// 2^53 must survive encode → decode exactly. Before the int64/uint64
// decode path, every number came back as float64 and 9007199254740993
// silently became 9007199254740992 — a corrupted argument the policy
// check and the engine would then both act on.
func TestWireBigIntegerRoundTrip(t *testing.T) {
	args := []any{
		int64(1) << 53,             // first float64-exact boundary
		int64(1)<<53 + 1,           // first value float64 CANNOT hold
		int64(9223372036854775807), // MaxInt64
		int64(-9223372036854775808),
		uint64(18446744073709551615), // MaxUint64
	}
	req := Request{Op: "query", ID: 1, SQL: "SELECT 1", Args: args}
	line, ok := appendRequest(nil, &req)
	if !ok {
		t.Fatalf("fast encoder refused big integers: %+v", req)
	}
	for name, decode := range map[string]func([]byte, *Request) bool{
		"fast": decodeRequest,
		"fallback": func(b []byte, r *Request) bool {
			return decodeRequestJSON(b, r) == nil
		},
	} {
		var got Request
		if !decode(line, &got) {
			t.Fatalf("%s decoder refused: %s", name, line)
		}
		if !reflect.DeepEqual(got.Args, args) {
			t.Errorf("%s decoder corrupted big integers:\n sent %v\n got  %v", name, args, got.Args)
		}
	}

	var cells []sqlvalue.Value
	for _, a := range args[:4] { // a uint64 past MaxInt64 is no INTEGER Value
		cells = append(cells, sqlvalue.MustFromAny(a))
	}
	resp := Response{ID: 1, OK: true, Columns: []string{"n"}, Rows: [][]sqlvalue.Value{cells}}
	rline, ok := appendResponse(nil, &resp)
	if !ok {
		t.Fatalf("fast encoder refused big-integer rows")
	}
	var gotResp Response
	if !decodeResponse(rline, &gotResp) {
		t.Fatalf("fast decoder refused: %s", rline)
	}
	if !reflect.DeepEqual(gotResp.Rows, resp.Rows) {
		t.Errorf("response rows corrupted:\n sent %v\n got  %v", resp.Rows, gotResp.Rows)
	}
}

func TestWireDecodeResponseBailsOnComplex(t *testing.T) {
	lines := []string{
		`{"id":1,"ok":true,"stats":{"conns":1}}`,
		`{"id":2,"ok":true,"batch":[{"ok":true}]}`,
		`{"id":3,"ok":true,"views":["V1"],"rows":[[1]]}`,
		`{"id":4,"ok":true,"columns":["\u0041"]}`,
	}
	for _, l := range lines {
		var resp Response
		if decodeResponse([]byte(l), &resp) {
			t.Errorf("fast decoder should have bailed: %s", l)
		}
	}
}
