package proxy

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/sqlvalue"
)

// The proxy frames v2 traffic as one JSON object per line, and the
// overwhelming majority of those objects have a tiny, flat shape:
// {"op":"query","id":7,"sid":3,"sql":"...","args":[1]} one way and
// {"id":7,"ok":true,"columns":["EId"],"rows":[["i:2"]]} back. The
// reflection-based encoding/json round trip costs more than the
// access check it transports, so the helpers below hand-encode and
// hand-decode exactly those shapes. Anything they do not fully
// understand — batches, stats bodies, nested values, escaped strings
// — falls back to encoding/json, so the wire format stays identical
// and the fallback is always correct.

// appendString appends s as a JSON string, quoted as a TEXT cell is.
func appendString(buf []byte, s string) []byte {
	buf, _ = sqlvalue.NewText(s).AppendJSON(buf)
	return buf
}

// appendResponse hand-encodes the common response shapes. It returns
// ok=false when resp needs the reflective encoder (stats, policy,
// batch, views, or an error payload).
func appendResponse(buf []byte, resp *Response) ([]byte, bool) {
	if resp.Error != "" || resp.Stats != nil || resp.Policy != nil || resp.Batch != nil || resp.Views != nil {
		return buf, false
	}
	buf = append(buf, '{')
	if resp.ID != 0 {
		buf = append(buf, `"id":`...)
		buf = strconv.AppendUint(buf, resp.ID, 10)
		buf = append(buf, ',')
	}
	buf = append(buf, `"ok":`...)
	buf = strconv.AppendBool(buf, resp.OK)
	if resp.Proto != 0 {
		buf = append(buf, `,"proto":`...)
		buf = strconv.AppendInt(buf, int64(resp.Proto), 10)
	}
	if resp.Restored != 0 {
		buf = append(buf, `,"restored":`...)
		buf = strconv.AppendInt(buf, int64(resp.Restored), 10)
	}
	if resp.Code != "" {
		buf = append(buf, `,"code":`...)
		buf = appendString(buf, resp.Code)
	}
	if resp.Blocked {
		buf = append(buf, `,"blocked":true,"reason":`...)
		buf = appendString(buf, resp.Reason)
	}
	if len(resp.Columns) > 0 {
		buf = append(buf, `,"columns":[`...)
		for i, c := range resp.Columns {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendString(buf, c)
		}
		buf = append(buf, ']')
	}
	if len(resp.Rows) > 0 {
		buf = append(buf, `,"rows":[`...)
		for i, row := range resp.Rows {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for j, cell := range row {
				if j > 0 {
					buf = append(buf, ',')
				}
				var ok bool
				if buf, ok = cell.AppendJSON(buf); !ok {
					return buf, false
				}
			}
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	if resp.Affected != 0 {
		buf = append(buf, `,"affected":`...)
		buf = strconv.AppendInt(buf, int64(resp.Affected), 10)
	}
	buf = append(buf, '}', '\n')
	return buf, true
}

// appendRequest hand-encodes the common request shapes (flat scalar
// args and session attrs). ok=false falls back to encoding/json.
func appendRequest(buf []byte, req *Request) ([]byte, bool) {
	if req.Batch != nil || req.Named != nil || req.Views != nil {
		return buf, false
	}
	buf = append(buf, `{"op":`...)
	buf = appendString(buf, req.Op)
	if req.ID != 0 {
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendUint(buf, req.ID, 10)
	}
	if req.SID != 0 {
		buf = append(buf, `,"sid":`...)
		buf = strconv.AppendUint(buf, req.SID, 10)
	}
	if req.MaxProto != 0 {
		buf = append(buf, `,"maxProto":`...)
		buf = strconv.AppendInt(buf, int64(req.MaxProto), 10)
	}
	if req.Name != "" {
		buf = append(buf, `,"name":`...)
		buf = appendString(buf, req.Name)
	}
	if len(req.Session) > 0 {
		buf = append(buf, `,"session":{`...)
		first := true
		for k, v := range req.Session {
			cell, ok := appendScalar(nil, v)
			if !ok {
				return buf, false
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendString(buf, k)
			buf = append(buf, ':')
			buf = append(buf, cell...)
		}
		buf = append(buf, '}')
	}
	if req.SQL != "" {
		buf = append(buf, `,"sql":`...)
		buf = appendString(buf, req.SQL)
	}
	if len(req.Args) > 0 {
		buf = append(buf, `,"args":[`...)
		for i, a := range req.Args {
			if i > 0 {
				buf = append(buf, ',')
			}
			var ok bool
			buf, ok = appendScalar(buf, a)
			if !ok {
				return buf, false
			}
		}
		buf = append(buf, ']')
	}
	if req.Target != 0 {
		buf = append(buf, `,"target":`...)
		buf = strconv.AppendUint(buf, req.Target, 10)
	}
	if req.TimeoutMillis != 0 {
		buf = append(buf, `,"timeoutMillis":`...)
		buf = strconv.AppendInt(buf, req.TimeoutMillis, 10)
	}
	buf = append(buf, '}', '\n')
	return buf, true
}

// appendScalar appends a request argument or session attribute in the
// JSON form of its Value, except that a uint64 past MaxInt64 stays
// exact. ok=false for a type it does not know or a NaN/Inf.
func appendScalar(buf []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case uint64:
		return strconv.AppendUint(buf, x, 10), true
	case nil, bool, int, int64, float64, string:
		sv, _ := sqlvalue.FromAny(x)
		return sv.AppendJSON(buf)
	}
	return buf, false
}

// wireScanner is a minimal scanner over one line of JSON for the
// hand-rolled decoders. Any syntax it does not expect aborts the fast
// path; the caller then re-parses with encoding/json, which also
// produces the proper error for genuinely malformed input.
type wireScanner struct {
	b   []byte
	pos int
}

func (s *wireScanner) ws() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

func (s *wireScanner) eat(c byte) bool {
	s.ws()
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *wireScanner) peek() byte {
	s.ws()
	if s.pos < len(s.b) {
		return s.b[s.pos]
	}
	return 0
}

// str scans a JSON string with no escapes; ok=false on escapes or
// syntax errors.
func (s *wireScanner) str() (string, bool) {
	b, ok := s.strBytes()
	if !ok {
		return "", false
	}
	return string(b), true
}

// strBytes scans a JSON string with no escapes and returns a VIEW into
// the line buffer — valid only until the caller's next read into that
// buffer. Callers either copy (str), compare against literals (opLit),
// or intern (sqlIntern), so no view escapes the decode.
func (s *wireScanner) strBytes() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	ascii := true
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		if c == '"' {
			out := s.b[start:s.pos]
			s.pos++
			if !ascii && !utf8.Valid(out) {
				// encoding/json rewrites invalid UTF-8 to U+FFFD;
				// rather than replicate that, bail to the fallback.
				return nil, false
			}
			return out, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		if c >= 0x80 {
			ascii = false
		}
		s.pos++
	}
	return nil, false
}

// numTok scans a numeric token and returns its bytes (a view). The
// token is validated against the JSON number grammar (RFC 8259) here,
// not left to strconv: ParseInt/ParseFloat accept forms JSON forbids
// ("00", "+5", ".5", "1."), and the fast path must never accept a line
// the reflective fallback would reject.
func (s *wireScanner) numTok() ([]byte, bool) {
	s.ws()
	start := s.pos
	for s.pos < len(s.b) {
		switch c := s.b[s.pos]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			s.pos++
		default:
			goto done
		}
	}
done:
	tok := s.b[start:s.pos]
	if !jsonNumber(tok) {
		return nil, false
	}
	return tok, true
}

// jsonNumber reports whether tok matches RFC 8259's number production:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumber(tok []byte) bool {
	i, n := 0, len(tok)
	if i < n && tok[i] == '-' {
		i++
	}
	switch {
	case i < n && tok[i] == '0':
		i++
	case i < n && tok[i] >= '1' && tok[i] <= '9':
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < n && tok[i] == '.' {
		i++
		d := i
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
		if i == d {
			return false
		}
	}
	if i < n && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < n && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		d := i
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
		if i == d {
			return false
		}
	}
	return i == n
}

// integralToken reports whether tok is a plain (optionally signed)
// decimal integer — no fraction, no exponent.
func integralToken(tok []byte) bool {
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c == '-' && i == 0 && len(tok) > 1 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(tok) > 0
}

// numValue decodes a numeric token the way appendScalar encodes one:
// integral tokens become int64 (uint64 when they exceed MaxInt64),
// everything else float64. Routing integers through float64 — what the
// decoder did before — silently corrupted values above 2^53 on
// round-trip; sqlvalue compares INTEGER keys exactly, so a corrupted
// argument is a wrong enforcement answer, not just a cosmetic loss.
func (s *wireScanner) numValue() (any, bool) {
	tok, ok := s.numTok()
	if !ok {
		return nil, false
	}
	if integralToken(tok) {
		if i, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
			return i, true
		}
		if tok[0] != '-' {
			if u, err := strconv.ParseUint(string(tok), 10, 64); err == nil {
				return u, true
			}
		}
		// Magnitude beyond 64 bits: approximate as float, like
		// encoding/json's default decode would.
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

func (s *wireScanner) lit(word string) bool {
	s.ws()
	if len(s.b)-s.pos < len(word) || string(s.b[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// value scans one result cell: null, a boolean, an escape-free string,
// or a number typed as Value.UnmarshalJSON types it.
func (s *wireScanner) value() (sqlvalue.Value, bool) {
	switch s.peek() {
	case '"':
		str, ok := s.str()
		return sqlvalue.NewText(str), ok
	case 't':
		return sqlvalue.NewBool(true), s.lit("true")
	case 'f':
		return sqlvalue.NewBool(false), s.lit("false")
	case 'n':
		return sqlvalue.NewNull(), s.lit("null")
	}
	tok, ok := s.numTok()
	var v sqlvalue.Value
	return v, ok && v.UnmarshalJSON(tok) == nil
}

// scalar scans null / bool / number / escape-free string.
func (s *wireScanner) scalar() (any, bool) {
	switch s.peek() {
	case '"':
		v, ok := s.str()
		return v, ok
	case 't':
		return true, s.lit("true")
	case 'f':
		return false, s.lit("false")
	case 'n':
		return nil, s.lit("null")
	default:
		return s.numValue()
	}
}

// uintVal decodes an ID-like field exactly: integral token parsed as
// uint64, full 64-bit range (the old float64 route rounded IDs above
// 2^53). Exponent/fraction forms bail to the reflective decoder.
func (s *wireScanner) uintVal() (uint64, bool) {
	tok, ok := s.numTok()
	if !ok || !integralToken(tok) || tok[0] == '-' {
		return 0, false
	}
	u, err := strconv.ParseUint(string(tok), 10, 64)
	return u, err == nil
}

// intVal decodes a small signed integral field exactly.
func (s *wireScanner) intVal() (int64, bool) {
	tok, ok := s.numTok()
	if !ok || !integralToken(tok) {
		return 0, false
	}
	i, err := strconv.ParseInt(string(tok), 10, 64)
	return i, err == nil
}

// opLit maps the protocol's known op tokens to canonical strings
// without copying out of the line buffer (a switch on string(b)
// compares in place). Unknown ops return "" and the caller copies.
func opLit(b []byte) string {
	switch string(b) {
	case "hello":
		return "hello"
	case "query":
		return "query"
	case "exec":
		return "exec"
	case "stats":
		return "stats"
	case "batch":
		return "batch"
	case "cancel":
		return "cancel"
	}
	return ""
}

// sqlIntern maps repeated statement text to one canonical string:
// applications issue the same statement shapes over and over, so after
// the first sighting the decoder's SQL "copy" is a no-alloc map hit on
// the in-place view. Bounded by wholesale reset; giant one-off
// statements are never retained.
var sqlIntern struct {
	sync.RWMutex
	m map[string]string
}

const (
	sqlInternMax       = 4096
	sqlInternMaxSQLLen = 4096
)

func internSQL(b []byte) string {
	if len(b) > sqlInternMaxSQLLen {
		return string(b)
	}
	sqlIntern.RLock()
	s, ok := sqlIntern.m[string(b)]
	sqlIntern.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	sqlIntern.Lock()
	if sqlIntern.m == nil || len(sqlIntern.m) >= sqlInternMax {
		sqlIntern.m = make(map[string]string, 64)
	}
	sqlIntern.m[s] = s
	sqlIntern.Unlock()
	return s
}

// decodeRequest hand-decodes a flat request line. ok=false (shape or
// syntax beyond the fast path) means: fall back to decodeRequestJSON.
// String views from the scanner never escape: op resolves to a
// canonical literal, sql to an interned string, and everything else is
// copied — by the time the caller reuses the line buffer the Request
// owns (or shares immutably) all of its strings.
func decodeRequest(line []byte, req *Request) bool {
	s := wireScanner{b: line}
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return s.end()
	}
	for {
		key, ok := s.strBytes()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "op":
			tok, ok := s.strBytes()
			if !ok {
				return false
			}
			if req.Op = opLit(tok); req.Op == "" {
				req.Op = string(tok)
			}
		case "sql":
			tok, ok := s.strBytes()
			if !ok {
				return false
			}
			req.SQL = internSQL(tok)
		case "name":
			if req.Name, ok = s.str(); !ok {
				return false
			}
		case "id":
			if req.ID, ok = s.uintVal(); !ok {
				return false
			}
		case "sid":
			if req.SID, ok = s.uintVal(); !ok {
				return false
			}
		case "target":
			if req.Target, ok = s.uintVal(); !ok {
				return false
			}
		case "maxProto":
			n, ok := s.intVal()
			if !ok {
				return false
			}
			req.MaxProto = int(n)
		case "timeoutMillis":
			if req.TimeoutMillis, ok = s.intVal(); !ok {
				return false
			}
		case "args":
			if req.Args, ok = scanArray(&s, s.scalar); !ok {
				return false
			}
		case "session":
			if req.Session, ok = s.scalarMap(); !ok {
				return false
			}
		case "named":
			if req.Named, ok = s.scalarMap(); !ok {
				return false
			}
		default:
			// batch or an unknown field: let encoding/json handle it.
			return false
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return s.end()
		}
		return false
	}
}

// scanArray scans a JSON array whose elements elem scans. An empty
// array comes back non-nil, as encoding/json decodes one.
func scanArray[T any](s *wireScanner, elem func() (T, bool)) ([]T, bool) {
	if !s.eat('[') {
		return nil, false
	}
	out := []T{}
	if s.eat(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return out, true
		}
		return nil, false
	}
}

// row scans one result row.
func (s *wireScanner) row() ([]sqlvalue.Value, bool) { return scanArray(s, s.value) }

func (s *wireScanner) scalarMap() (map[string]any, bool) {
	if !s.eat('{') {
		return nil, false
	}
	out := map[string]any{}
	if s.eat('}') {
		return out, true
	}
	for {
		k, ok := s.str()
		if !ok || !s.eat(':') {
			return nil, false
		}
		v, ok := s.scalar()
		if !ok {
			return nil, false
		}
		out[k] = v
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return out, true
		}
		return nil, false
	}
}

// end verifies only whitespace remains.
func (s *wireScanner) end() bool {
	s.ws()
	return s.pos == len(s.b)
}

// decodeResponse hand-decodes the common response line shapes (rows,
// blocks, plain acks). ok=false falls back to encoding/json.
func decodeResponse(line []byte, resp *Response) bool {
	s := wireScanner{b: line}
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return s.end()
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch key {
		case "id":
			if resp.ID, ok = s.uintVal(); !ok {
				return false
			}
		case "ok":
			switch s.peek() {
			case 't':
				resp.OK = true
				ok = s.lit("true")
			case 'f':
				resp.OK = false
				ok = s.lit("false")
			default:
				ok = false
			}
			if !ok {
				return false
			}
		case "blocked":
			if !s.lit("true") {
				return false
			}
			resp.Blocked = true
		case "proto":
			n, ok := s.intVal()
			if !ok {
				return false
			}
			resp.Proto = int(n)
		case "restored":
			n, ok := s.intVal()
			if !ok {
				return false
			}
			resp.Restored = int(n)
		case "affected":
			n, ok := s.intVal()
			if !ok {
				return false
			}
			resp.Affected = int(n)
		case "reason":
			if resp.Reason, ok = s.str(); !ok {
				return false
			}
		case "error":
			if resp.Error, ok = s.str(); !ok {
				return false
			}
		case "code":
			if resp.Code, ok = s.str(); !ok {
				return false
			}
		case "columns":
			if resp.Columns, ok = scanArray(&s, s.str); !ok {
				return false
			}
		case "rows":
			if resp.Rows, ok = scanArray(&s, s.row); !ok {
				return false
			}
		default:
			// stats, batch, views: reflective decode.
			return false
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return s.end()
		}
		return false
	}
}

// --- reflective fallback ---
//
// Lines the fast path does not fully understand re-parse with
// encoding/json. A plain json.Unmarshal would decode every number in
// an `any` position as float64 — disagreeing with the fast path (and
// corrupting integers above 2^53) depending on which decoder handled a
// line. The request helpers below decode with UseNumber and normalize
// numeric tokens by the same rule as the scanner's numValue, so both
// decoders produce identical values on every line; a response's cells
// are Values, which decode themselves by the scanner's rule.

// normalizeWireNumber maps a json.Number to the fast path's decode:
// integral → int64 (uint64 past MaxInt64), otherwise float64.
func normalizeWireNumber(n json.Number) any {
	s := string(n)
	if integralToken([]byte(s)) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return i
		}
		if s[0] != '-' {
			if u, err := strconv.ParseUint(s, 10, 64); err == nil {
				return u
			}
		}
	}
	if f, err := n.Float64(); err == nil {
		return f
	}
	return s // unparseable exotic literal: keep the token text
}

func normalizeWireValue(v any) any {
	if n, ok := v.(json.Number); ok {
		return normalizeWireNumber(n)
	}
	return v
}

func normalizeWireSlice(vals []any) {
	for i, v := range vals {
		vals[i] = normalizeWireValue(v)
	}
}

func normalizeWireMap(m map[string]any) {
	for k, v := range m {
		if n, ok := v.(json.Number); ok {
			m[k] = normalizeWireNumber(n)
		}
	}
}

func normalizeRequest(req *Request) {
	normalizeWireSlice(req.Args)
	normalizeWireMap(req.Session)
	normalizeWireMap(req.Named)
	for i := range req.Batch {
		normalizeRequest(&req.Batch[i])
	}
}

// decodeRequestJSON is the reflective request decode, normalized to
// agree with the fast path on every numeric value.
func decodeRequestJSON(line []byte, req *Request) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(req); err != nil {
		return err
	}
	normalizeRequest(req)
	return nil
}

// decodeResponseJSON is the reflective response decode.
func decodeResponseJSON(line []byte, resp *Response) error {
	return json.NewDecoder(bytes.NewReader(line)).Decode(resp)
}
