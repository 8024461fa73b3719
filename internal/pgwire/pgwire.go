// Package pgwire implements a Postgres wire-protocol (v3) ingress for
// the enforcement proxy: stock Postgres clients — psql, language
// drivers, ORMs — connect, prepare, and execute statements, and EVERY
// statement is decided by the same checker/pipeline/durability stack
// the native v2 protocol uses. The listener is a protocol bridge, not
// a second enforcement path: each statement becomes a proxy Request
// handled through proxy.Server.HandleInCtx on the connection's
// session, so decisions, history recording, metrics, and WAL behaviour
// are identical across ingress surfaces by construction.
//
// Supported: startup (incl. SSLRequest refusal and CancelRequest),
// simple Query, the extended Parse/Bind/Describe/Execute/Close/Sync
// flow, text-format parameters and results, transaction status
// tracking ('I'/'T'/'E') with aborted-transaction semantics, and
// out-of-band cancellation via BackendKeyData. Not supported (rejected
// with SQLSTATE 0A000): binary parameter/result formats, COPY, and
// function calls.
//
// Session binding: startup parameters named "attr.X" become policy
// session attributes (values typed by int -> float -> bool -> text
// inference); the startup parameter "session" names a durable session
// restored from the WAL when the proxy runs with one.
package pgwire

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"net"
	"strings"
	"sync"

	"repro/internal/acerr"
	"repro/internal/proxy"
)

// Server is the Postgres wire protocol as an ingress of one
// enforcement proxy: it listens through the proxy's listener core
// (proxy.Server.ListenIngress), which owns the sockets, the connection
// limit, the idle deadline and the drain. What it keeps itself is the
// pid -> connection map CancelRequests are routed by.
type Server struct {
	px *proxy.Server

	mu      sync.Mutex
	byPid   map[int32]*conn
	nextPid int32
}

// NewServer returns the Postgres wire ingress of px; listen with
// px.ListenIngress(addr, NewServer(px)).
func NewServer(px *proxy.Server) *Server {
	return &Server{px: px, byPid: make(map[int32]*conn)}
}

// Serve runs one client connection: it allocates the connection's
// cancellation identity (BackendKeyData), tracks it for CancelRequest
// routing, and speaks the protocol until the client leaves.
func (s *Server) Serve(ctx context.Context, nc net.Conn) {
	var sb [4]byte
	_, _ = rand.Read(sb[:])
	c := &conn{srv: s, netc: nc, secret: int32(binary.BigEndian.Uint32(sb[:]))}
	s.mu.Lock()
	s.nextPid++
	c.pid = s.nextPid
	s.byPid[c.pid] = c
	s.mu.Unlock()
	c.serve(ctx)
	s.mu.Lock()
	delete(s.byPid, c.pid)
	s.mu.Unlock()
}

// Refuse answers a connection past the proxy's connection limit. The
// client has not completed startup, but an ErrorResponse before
// AuthenticationOk is legal and what real servers do.
func (*Server) Refuse(nc net.Conn) {
	_, _ = nc.Write(appendErrorResponse(nil, acerr.SQLStateTooManyConns, "too many connections"))
}

// cancelByKey services a CancelRequest: find the connection by pid,
// verify the secret, and cancel its in-flight statement (a no-op when
// idle). Per protocol there is no success/failure reply.
func (s *Server) cancelByKey(pid, secret int32) {
	s.mu.Lock()
	c := s.byPid[pid]
	s.mu.Unlock()
	if c == nil || c.secret != secret {
		return
	}
	c.cancelCurrent()
}

// parseAttrValue types a startup-parameter string by affinity:
// int -> float -> bool -> text, mirroring how the v2 protocol's JSON
// attributes arrive typed.
func parseAttrValue(s string) any {
	if v, err := parseInt(s); err == nil {
		return v
	}
	if v, err := parseFloat(s); err == nil {
		return v
	}
	switch strings.ToLower(s) {
	case "true", "t":
		return true
	case "false", "f":
		return false
	}
	return s
}
