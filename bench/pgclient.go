package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// pgConn is the benchmark's own Postgres wire (v3) client: startup
// with session attributes, named prepared statements, and one
// Bind/Execute/Sync exchange per operation — the extended-protocol
// flow a stock driver's prepared statements use. It reads only what
// the checks need (row count, DataRow bytes, the error's SQLSTATE).
type pgConn struct {
	c   net.Conn
	r   *bufio.Reader
	out []byte
	hdr [5]byte
}

// pgResult is one statement's outcome as seen on the wire.
type pgResult struct {
	rows     int
	rowBytes int    // DataRow bytes, frame headers included
	sqlstate string // non-empty on ErrorResponse
	message  string
}

// sqlstateBlocked is the SQLSTATE a policy block surfaces as
// (insufficient_privilege).
const sqlstateBlocked = "42501"

func pgDial(addr string, attrs map[string]string) (*pgConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	p := &pgConn{c: c, r: bufio.NewReaderSize(c, 64*1024)}
	body := binary.BigEndian.AppendUint32(nil, 196608)
	body = append(append(body, "user"...), 0)
	body = append(append(body, "bench"...), 0)
	for k, v := range attrs {
		body = append(append(body, "attr."+k...), 0)
		body = append(append(body, v...), 0)
	}
	body = append(body, 0)
	msg := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
	if _, err := c.Write(append(msg, body...)); err != nil {
		c.Close()
		return nil, err
	}
	res, err := p.drain()
	if err == nil && res.sqlstate != "" {
		err = fmt.Errorf("pg startup: %s %s", res.sqlstate, res.message)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return p, nil
}

func (p *pgConn) close() error {
	_, _ = p.c.Write([]byte{'X', 0, 0, 0, 4})
	return p.c.Close()
}

// begin starts a frontend message in the output buffer and returns the
// offset of its length word.
func (p *pgConn) begin(typ byte) int {
	p.out = append(p.out, typ, 0, 0, 0, 0)
	return len(p.out) - 4
}

func (p *pgConn) end(at int) {
	binary.BigEndian.PutUint32(p.out[at:], uint32(len(p.out)-at))
}

func (p *pgConn) cstr(s string) { p.out = append(append(p.out, s...), 0) }

// prepare sends Parse for a named statement and waits for the server
// to accept it.
func (p *pgConn) prepare(name, sql string) error {
	p.out = p.out[:0]
	at := p.begin('P')
	p.cstr(name)
	p.cstr(sql)
	p.out = append(p.out, 0, 0) // no parameter type OIDs: server infers
	p.end(at)
	at = p.begin('S')
	p.end(at)
	if _, err := p.c.Write(p.out); err != nil {
		return err
	}
	res, err := p.drain()
	if err != nil {
		return err
	}
	if res.sqlstate != "" {
		return fmt.Errorf("pg prepare %s: %s %s", name, res.sqlstate, res.message)
	}
	return nil
}

// exec binds the named statement to text-format arguments, executes it
// and reads to ReadyForQuery.
func (p *pgConn) exec(name string, args []any) (pgResult, error) {
	p.out = p.out[:0]
	at := p.begin('B')
	p.cstr("") // unnamed portal
	p.cstr(name)
	p.out = append(p.out, 0, 0) // all parameters text
	p.out = binary.BigEndian.AppendUint16(p.out, uint16(len(args)))
	for _, a := range args {
		lenAt := len(p.out)
		p.out = append(p.out, 0, 0, 0, 0)
		switch v := a.(type) {
		case int64:
			p.out = strconv.AppendInt(p.out, v, 10)
		case int:
			p.out = strconv.AppendInt(p.out, int64(v), 10)
		case string:
			p.out = append(p.out, v...)
		default:
			p.out = fmt.Append(p.out, v)
		}
		binary.BigEndian.PutUint32(p.out[lenAt:], uint32(len(p.out)-lenAt-4))
	}
	p.out = append(p.out, 0, 0) // all results text
	p.end(at)
	at = p.begin('E')
	p.cstr("")
	p.out = append(p.out, 0, 0, 0, 0) // no row limit
	p.end(at)
	at = p.begin('S')
	p.end(at)
	if _, err := p.c.Write(p.out); err != nil {
		return pgResult{}, err
	}
	return p.drain()
}

// drain reads backend messages up to ReadyForQuery.
func (p *pgConn) drain() (pgResult, error) {
	var res pgResult
	for {
		if _, err := io.ReadFull(p.r, p.hdr[:]); err != nil {
			return res, err
		}
		n := int(binary.BigEndian.Uint32(p.hdr[1:])) - 4
		if n < 0 {
			return res, fmt.Errorf("pg: bad frame length %d", n+4)
		}
		switch p.hdr[0] {
		case 'D':
			res.rows++
			res.rowBytes += n + 5
			if _, err := p.r.Discard(n); err != nil {
				return res, err
			}
		case 'E':
			body := make([]byte, n)
			if _, err := io.ReadFull(p.r, body); err != nil {
				return res, err
			}
			res.sqlstate, res.message = parsePgError(body)
		case 'Z':
			_, err := p.r.Discard(n)
			return res, err
		default:
			if _, err := p.r.Discard(n); err != nil {
				return res, err
			}
		}
	}
}

// parsePgError pulls the SQLSTATE ('C') and message ('M') fields out
// of an ErrorResponse body.
func parsePgError(body []byte) (state, msg string) {
	for len(body) > 1 {
		field := body[0]
		body = body[1:]
		end := 0
		for end < len(body) && body[end] != 0 {
			end++
		}
		switch field {
		case 'C':
			state = string(body[:end])
		case 'M':
			msg = string(body[:end])
		}
		if end >= len(body) {
			break
		}
		body = body[end+1:]
	}
	return state, msg
}
