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

// Backend messages are appended to the connection's output buffer in
// place: begin appends the type byte and a length placeholder, finish
// patches the length of the message begun at at.

func begin(b []byte, typ byte) ([]byte, int) { return append(b, typ, 0, 0, 0, 0), len(b) }

func finish(b []byte, at int) []byte {
	binary.BigEndian.PutUint32(b[at+1:], uint32(len(b)-at-1))
	return b
}

func cstr(b []byte, s string) []byte { return append(append(b, s...), 0) }

func int16be(b []byte, v int16) []byte { return binary.BigEndian.AppendUint16(b, uint16(v)) }
func int32be(b []byte, v int32) []byte { return binary.BigEndian.AppendUint32(b, uint32(v)) }

// --- Backend messages ---

// bodiless appends a message that carries no body: ParseComplete ('1'),
// BindComplete ('2'), CloseComplete ('3'), NoData ('n') or
// EmptyQueryResponse ('I').
func bodiless(b []byte, typ byte) []byte { return append(b, typ, 0, 0, 0, 4) }

func appendAuthOK(b []byte) []byte { return append(b, 'R', 0, 0, 0, 8, 0, 0, 0, 0) }

func appendParameterStatus(b []byte, k, v string) []byte {
	b, at := begin(b, 'S')
	return finish(cstr(cstr(b, k), v), at)
}

func appendBackendKeyData(b []byte, pid, secret int32) []byte {
	return int32be(int32be(append(b, 'K', 0, 0, 0, 12), pid), secret)
}

func appendReadyForQuery(b []byte, status byte) []byte {
	return append(b, 'Z', 0, 0, 0, 5, status)
}

// appendRowDescription describes result columns. The engine is
// dynamically typed, so every column is announced as text (OID 25);
// values arrive in text format regardless.
func appendRowDescription(b []byte, cols []string) []byte {
	b, at := begin(b, 'T')
	b = int16be(b, int16(len(cols)))
	for _, c := range cols {
		b = cstr(b, c)
		b = int32be(b, 0) // table OID
		b = int16be(b, 0) // attribute number
		b = int32be(b, oidText)
		b = int16be(b, -1) // typlen (variable)
		b = int32be(b, -1) // typmod
		b = int16be(b, 0)  // format: text
	}
	return finish(b, at)
}

// appendDataRow appends one DataRow in one pass: each cell is NULL as
// length -1, otherwise a 4-byte length placeholder followed by the
// value's Postgres text rendering appended in place (strconv append
// forms, no intermediate string or []byte copy), with the length
// patched afterward. Cells are read through pointers (sqlvalue.TypeOf),
// so none is copied. The golden and fuzz tests in frame_test.go pin it
// to a string-building reference.
func appendDataRow(b []byte, row []sqlvalue.Value) []byte {
	b, at := begin(b, 'D')
	b = int16be(b, int16(len(row)))
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
	return finish(b, at)
}

func appendCommandComplete(b []byte, tag string) []byte {
	b, at := begin(b, 'C')
	return finish(cstr(b, tag), at)
}

// appendCommandCompleteSelect appends the "SELECT n" completion tag
// without materializing the tag string (the per-query concat showed up
// in the saturation profile).
func appendCommandCompleteSelect(b []byte, n int) []byte {
	b, at := begin(b, 'C')
	b = strconv.AppendInt(append(b, "SELECT "...), int64(n), 10)
	return finish(append(b, 0), at)
}

func appendParameterDescription(b []byte, oids []int32) []byte {
	b, at := begin(b, 't')
	b = int16be(b, int16(len(oids)))
	for _, o := range oids {
		b = int32be(b, o)
	}
	return finish(b, at)
}

// appendErrorResponse reports an error with its SQLSTATE. Severity is
// always ERROR: the listener never kills the connection for statement
// errors, matching server behaviour.
func appendErrorResponse(b []byte, sqlstate, message string) []byte {
	b, at := begin(b, 'E')
	b = cstr(append(b, 'S'), "ERROR")
	b = cstr(append(b, 'V'), "ERROR")
	b = cstr(append(b, 'C'), sqlstate)
	b = cstr(append(b, 'M'), message)
	return finish(append(b, 0), at)
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
