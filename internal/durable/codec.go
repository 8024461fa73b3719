package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Record payload encoding: length-prefixed strings and a compact typed
// value form, all uvarint-framed. The decoder is defensive — every
// length is checked against the remaining payload before allocation —
// because recovery and acwal feed it bytes that survived a crash, and
// FuzzWALDecode feeds it bytes that survived nothing.

// Value tags.
const (
	valNull byte = 0
	valInt  byte = 1
	valReal byte = 2
	valText byte = 3
	valBool byte = 4
)

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendLenString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v sqlvalue.Value) []byte {
	switch v.Type() {
	case sqlvalue.Null:
		return append(buf, valNull)
	case sqlvalue.Int:
		buf = append(buf, valInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case sqlvalue.Real:
		buf = append(buf, valReal)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Real()))
	case sqlvalue.Text:
		buf = append(buf, valText)
		return appendLenString(buf, v.Text())
	case sqlvalue.Bool:
		buf = append(buf, valBool)
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	// Unreachable for well-formed values; encode as NULL.
	return append(buf, valNull)
}

func appendValues(buf []byte, vals []sqlvalue.Value) []byte {
	buf = appendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = appendValue(buf, v)
	}
	return buf
}

// payloadReader decodes a record payload with sticky error state.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("durable: truncated or malformed %s", what)
	}
}

func (r *payloadReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(what)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	return string(r.bytes(int(n), what))
}

func (r *payloadReader) value() sqlvalue.Value {
	tag := r.bytes(1, "value tag")
	if r.err != nil {
		return sqlvalue.NewNull()
	}
	switch tag[0] {
	case valNull:
		return sqlvalue.NewNull()
	case valInt:
		b := r.bytes(8, "int value")
		if r.err != nil {
			return sqlvalue.NewNull()
		}
		return sqlvalue.NewInt(int64(binary.LittleEndian.Uint64(b)))
	case valReal:
		b := r.bytes(8, "real value")
		if r.err != nil {
			return sqlvalue.NewNull()
		}
		return sqlvalue.NewReal(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case valText:
		return sqlvalue.NewText(r.str("text value"))
	case valBool:
		b := r.bytes(1, "bool value")
		if r.err != nil {
			return sqlvalue.NewNull()
		}
		return sqlvalue.NewBool(b[0] != 0)
	}
	r.fail("value tag")
	return sqlvalue.NewNull()
}

// count reads a collection length and sanity-bounds it by the bytes
// remaining (every element costs at least one byte), so a corrupt
// length can never drive a giant allocation.
func (r *payloadReader) count(what string) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *payloadReader) values(what string) []sqlvalue.Value {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]sqlvalue.Value, n)
	for i := range out {
		out[i] = r.value()
	}
	return out
}

// --- session records ---

func encodeSession(name string, attrs map[string]sqlvalue.Value) []byte {
	buf := appendLenString(nil, name)
	buf = appendUvarint(buf, uint64(len(attrs)))
	// Deterministic order keeps byte-identical WALs for identical runs
	// (useful for tests and acwal diffing).
	for _, k := range sortedKeys(attrs) {
		buf = appendLenString(buf, k)
		buf = appendValue(buf, attrs[k])
	}
	return buf
}

func decodeSession(payload []byte) (name string, attrs map[string]sqlvalue.Value, err error) {
	r := payloadReader{b: payload}
	name = r.str("session name")
	n := r.count("session attrs")
	attrs = make(map[string]sqlvalue.Value, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str("attr name")
		attrs[k] = r.value()
	}
	return name, attrs, r.err
}

// --- append records ---

func encodeAppend(name string, idx uint64, e *trace.Entry) []byte {
	buf := appendLenString(nil, name)
	buf = appendUvarint(buf, idx)
	buf = appendLenString(buf, e.SQL)
	buf = appendValues(buf, e.Args.Positional)
	buf = appendUvarint(buf, uint64(len(e.Args.Named)))
	for _, k := range sortedKeys(e.Args.Named) {
		buf = appendLenString(buf, k)
		buf = appendValue(buf, e.Args.Named[k])
	}
	buf = appendUvarint(buf, uint64(len(e.Columns)))
	for _, c := range e.Columns {
		buf = appendLenString(buf, c)
	}
	buf = appendUvarint(buf, uint64(len(e.Rows)))
	for _, row := range e.Rows {
		buf = appendValues(buf, row)
	}
	return appendUvarint(buf, uint64(e.Omitted))
}

// decodeAppend rebuilds the trace entry, re-parsing the SQL (parsed
// statements are shared immutable objects, not serialized). An entry
// whose SQL no longer parses is reported as an error — it could only
// have been logged by a different (newer-grammar) build. The trailing
// omitted-row count is format 2's; a format-1 record ends before it and
// kept every row.
func decodeAppend(payload []byte) (name string, idx uint64, e trace.Entry, err error) {
	r := payloadReader{b: payload}
	name = r.str("session name")
	idx = r.uvarint("entry index")
	e.SQL = r.str("entry sql")
	e.Args.Positional = r.values("positional args")
	if n := r.count("named args"); n > 0 {
		e.Args.Named = make(map[string]sqlvalue.Value, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str("named arg")
			e.Args.Named[k] = r.value()
		}
	}
	if n := r.count("columns"); n > 0 {
		e.Columns = make([]string, n)
		for i := range e.Columns {
			e.Columns[i] = r.str("column")
		}
	}
	if n := r.count("rows"); n > 0 {
		e.Rows = make([][]sqlvalue.Value, n)
		for i := range e.Rows {
			e.Rows[i] = r.values("row")
		}
	}
	if r.err == nil && len(r.b) > 0 {
		if n := r.uvarint("omitted rows"); n <= math.MaxInt32 {
			e.Omitted = int(n)
		} else {
			r.fail("omitted rows")
		}
	}
	if r.err != nil {
		return name, idx, e, r.err
	}
	e.Stmt, err = sqlparser.ParseSelectNorm(e.SQL)
	if err != nil {
		return name, idx, e, fmt.Errorf("durable: replayed entry does not parse: %w", err)
	}
	return name, idx, e, nil
}

// --- policy records ---

// policySnapshot is the persisted policy identity: the fingerprint the
// checker decided under, the view SQL for inspection, and a content
// hash of the database the proxy was serving (recovery warns when
// either changed across the restart).
type policySnapshot struct {
	Fingerprint string
	Views       map[string]string
	DBHash      uint64
}

func encodePolicy(p *policySnapshot) []byte {
	buf := appendLenString(nil, p.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, p.DBHash)
	buf = appendUvarint(buf, uint64(len(p.Views)))
	for _, k := range sortedStrKeys(p.Views) {
		buf = appendLenString(buf, k)
		buf = appendLenString(buf, p.Views[k])
	}
	return buf
}

func decodePolicy(payload []byte) (*policySnapshot, error) {
	r := payloadReader{b: payload}
	p := &policySnapshot{Fingerprint: r.str("policy fingerprint")}
	b := r.bytes(8, "db hash")
	if r.err == nil {
		p.DBHash = binary.LittleEndian.Uint64(b)
	}
	n := r.count("policy views")
	p.Views = make(map[string]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str("view name")
		p.Views[k] = r.str("view sql")
	}
	return p, r.err
}

// --- checkpoint meta / end records ---

// ckptMeta opens a checkpoint file: cut is the first segment index NOT
// covered by it (replay resumes there; segments below it are
// compactable once the checkpoint is durable).
type ckptMeta struct {
	Cut      uint64
	Sessions uint64
}

func encodeCkptMeta(m *ckptMeta) []byte {
	buf := appendUvarint(nil, m.Cut)
	return appendUvarint(buf, m.Sessions)
}

func decodeCkptMeta(payload []byte) (*ckptMeta, error) {
	r := payloadReader{b: payload}
	m := &ckptMeta{Cut: r.uvarint("checkpoint cut")}
	m.Sessions = r.uvarint("checkpoint sessions")
	return m, r.err
}

func encodeCkptEnd(records uint64) []byte { return appendUvarint(nil, records) }

func decodeCkptEnd(payload []byte) (uint64, error) {
	r := payloadReader{b: payload}
	n := r.uvarint("checkpoint end")
	return n, r.err
}

func sortedKeys(m map[string]sqlvalue.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortedStrKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

// sortStrings is an insertion sort: key sets here (session attrs,
// named args, views) are tiny, and it keeps the codec free of even a
// sort import dependency question.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
