package pgwire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sqlvalue"
)

// Postgres v3 framing: after startup, every frontend message is one
// type byte followed by an int32 length (which includes itself but not
// the type byte) and the payload. Startup-phase messages omit the type
// byte. Backend messages use the same framed shape.

const (
	// Startup-phase magic "protocol versions".
	protoV3        = 196608   // 3.0
	sslRequestCode = 80877103 // SSLRequest: answer 'N', expect a retry
	cancelCode     = 80877102 // CancelRequest: pid + secret, no reply

	// maxMsgBytes bounds any single frontend message; a length beyond
	// it means a confused or malicious peer, not a big query.
	maxMsgBytes = 1 << 20
)

// Postgres type OIDs used on the wire. The engine is dynamically
// typed, so result columns are described as text and clients get the
// text rendering; parameter OIDs steer decoding when a driver supplies
// them.
const (
	oidBool    = 16
	oidInt8    = 20
	oidInt2    = 21
	oidInt4    = 23
	oidText    = 25
	oidFloat4  = 700
	oidFloat8  = 701
	oidVarchar = 1043
	oidNumeric = 1700
)

// readStartup reads one startup-phase message: its code and the rest
// of the payload.
func readStartup(r io.Reader) (code int32, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(lenBuf[:]))
	if n < 8 || n > maxMsgBytes {
		return 0, nil, fmt.Errorf("pgwire: bad startup length %d", n)
	}
	body := make([]byte, n-4)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return int32(binary.BigEndian.Uint32(body[:4])), body[4:], nil
}

// readMsg reads one framed frontend message into *scratch, growing it
// as needed; the returned payload aliases the scratch buffer and is
// valid only until the next readMsg call with the same scratch. Every
// payload consumer copies what it keeps (cstr and decodeTextParam
// materialize strings), so one per-connection buffer serves the whole
// message stream without a per-message allocation.
func readMsg(r io.Reader, scratch *[]byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(hdr[1:]))
	if n < 4 || n > maxMsgBytes {
		return 0, nil, fmt.Errorf("pgwire: bad message length %d", n)
	}
	need := int(n - 4)
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	payload = (*scratch)[:need]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// msgBuf builds one backend message. Zero value is ready after begin.
type msgBuf struct {
	buf []byte
}

func (m *msgBuf) begin(typ byte) {
	m.buf = append(m.buf[:0], typ, 0, 0, 0, 0)
}

func (m *msgBuf) byte(b byte)    { m.buf = append(m.buf, b) }
func (m *msgBuf) bytes(b []byte) { m.buf = append(m.buf, b...) }
func (m *msgBuf) int16(v int16)  { m.buf = binary.BigEndian.AppendUint16(m.buf, uint16(v)) }
func (m *msgBuf) int32(v int32)  { m.buf = binary.BigEndian.AppendUint32(m.buf, uint32(v)) }
func (m *msgBuf) cstr(s string)  { m.buf = append(append(m.buf, s...), 0) }

// finish patches the length and returns the wire bytes (valid until
// the next begin).
func (m *msgBuf) finish() []byte {
	binary.BigEndian.PutUint32(m.buf[1:5], uint32(len(m.buf)-1))
	return m.buf
}

func writeMsg(w io.Writer, m *msgBuf) error {
	_, err := w.Write(m.finish())
	return err
}

// --- Backend message writers ---

func writeAuthOK(w io.Writer, m *msgBuf) error {
	m.begin('R')
	m.int32(0)
	return writeMsg(w, m)
}

func writeParameterStatus(w io.Writer, m *msgBuf, k, v string) error {
	m.begin('S')
	m.cstr(k)
	m.cstr(v)
	return writeMsg(w, m)
}

func writeBackendKeyData(w io.Writer, m *msgBuf, pid, secret int32) error {
	m.begin('K')
	m.int32(pid)
	m.int32(secret)
	return writeMsg(w, m)
}

func writeReadyForQuery(w io.Writer, m *msgBuf, status byte) error {
	m.begin('Z')
	m.byte(status)
	return writeMsg(w, m)
}

// writeRowDescription describes result columns. The engine is
// dynamically typed, so every column is announced as text (OID 25);
// values arrive in text format regardless.
func writeRowDescription(w io.Writer, m *msgBuf, cols []string) error {
	m.begin('T')
	m.int16(int16(len(cols)))
	for _, c := range cols {
		m.cstr(c)
		m.int32(0) // table OID
		m.int16(0) // attribute number
		m.int32(oidText)
		m.int16(-1) // typlen (variable)
		m.int32(-1) // typmod
		m.int16(0)  // format: text
	}
	return writeMsg(w, m)
}

// dataRow appends one DataRow after whatever m already holds, in one
// pass over a local slice: each cell is NULL as length -1, otherwise a
// 4-byte length placeholder followed by the value's Postgres text
// rendering appended in place (strconv append forms, no intermediate
// string or []byte copy), with the length patched afterward. Cells are
// read through pointers (sqlvalue.TypeOf), so none is copied. The golden
// and fuzz tests in frame_test.go pin it to a string-building reference.
func (m *msgBuf) dataRow(row []sqlvalue.Value) {
	b := m.buf
	at := len(b)
	b = binary.BigEndian.AppendUint16(append(b, 'D', 0, 0, 0, 0), uint16(len(row)))
	for i := range row {
		v := &row[i]
		if sqlvalue.TypeOf(v) == sqlvalue.Null {
			b = append(b, 0xff, 0xff, 0xff, 0xff)
			continue
		}
		cell := len(b)
		b = append(b, 0, 0, 0, 0)
		switch sqlvalue.TypeOf(v) {
		case sqlvalue.Int:
			b = strconv.AppendInt(b, sqlvalue.IntOf(v), 10)
		case sqlvalue.Real:
			b = strconv.AppendFloat(b, sqlvalue.RealOf(v), 'g', -1, 64)
		case sqlvalue.Bool:
			if sqlvalue.BoolOf(v) {
				b = append(b, 't')
			} else {
				b = append(b, 'f')
			}
		case sqlvalue.Text:
			b = append(b, sqlvalue.TextOf(v)...)
		}
		binary.BigEndian.PutUint32(b[cell:], uint32(len(b)-cell-4))
	}
	binary.BigEndian.PutUint32(b[at+1:], uint32(len(b)-at-1))
	m.buf = b
}

func writeCommandComplete(w io.Writer, m *msgBuf, tag string) error {
	m.begin('C')
	m.cstr(tag)
	return writeMsg(w, m)
}

// writeCommandCompleteSelect writes the "SELECT n" completion tag
// without materializing the tag string (the per-query concat showed up
// in the saturation profile).
func writeCommandCompleteSelect(w io.Writer, m *msgBuf, n int) error {
	m.begin('C')
	m.buf = append(m.buf, "SELECT "...)
	m.buf = strconv.AppendInt(m.buf, int64(n), 10)
	m.byte(0)
	return writeMsg(w, m)
}

func writeEmptyQueryResponse(w io.Writer, m *msgBuf) error {
	m.begin('I')
	return writeMsg(w, m)
}

func writeParseComplete(w io.Writer, m *msgBuf) error {
	m.begin('1')
	return writeMsg(w, m)
}

func writeBindComplete(w io.Writer, m *msgBuf) error {
	m.begin('2')
	return writeMsg(w, m)
}

func writeCloseComplete(w io.Writer, m *msgBuf) error {
	m.begin('3')
	return writeMsg(w, m)
}

func writeNoData(w io.Writer, m *msgBuf) error {
	m.begin('n')
	return writeMsg(w, m)
}

func writeParameterDescription(w io.Writer, m *msgBuf, oids []int32) error {
	m.begin('t')
	m.int16(int16(len(oids)))
	for _, o := range oids {
		m.int32(o)
	}
	return writeMsg(w, m)
}

// writeErrorResponse reports an error with its SQLSTATE. Severity is
// always ERROR: the listener never kills the connection for statement
// errors, matching server behaviour.
func writeErrorResponse(w io.Writer, m *msgBuf, sqlstate, message string) error {
	m.begin('E')
	m.byte('S')
	m.cstr("ERROR")
	m.byte('V')
	m.cstr("ERROR")
	m.byte('C')
	m.cstr(sqlstate)
	m.byte('M')
	m.cstr(message)
	m.byte(0)
	return writeMsg(w, m)
}

// --- Frontend payload parsing helpers ---

// payloadReader walks a frontend message payload.
type payloadReader struct {
	b []byte
}

func (p *payloadReader) cstr() (string, error) {
	for i, c := range p.b {
		if c == 0 {
			s := string(p.b[:i])
			p.b = p.b[i+1:]
			return s, nil
		}
	}
	return "", fmt.Errorf("pgwire: unterminated string in message")
}

func (p *payloadReader) int16() (int16, error) {
	if len(p.b) < 2 {
		return 0, fmt.Errorf("pgwire: short message")
	}
	v := int16(binary.BigEndian.Uint16(p.b))
	p.b = p.b[2:]
	return v, nil
}

func (p *payloadReader) int32() (int32, error) {
	if len(p.b) < 4 {
		return 0, fmt.Errorf("pgwire: short message")
	}
	v := int32(binary.BigEndian.Uint32(p.b))
	p.b = p.b[4:]
	return v, nil
}

func (p *payloadReader) take(n int) ([]byte, error) {
	if n < 0 || len(p.b) < n {
		return nil, fmt.Errorf("pgwire: short message")
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v, nil
}
