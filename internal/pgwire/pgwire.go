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

// Config parameterizes a listener.
type Config struct {
	// Proxy is the enforcement server every statement is decided by.
	Proxy *proxy.Server
	// MaxConns bounds concurrent connections; 0 means 256.
	MaxConns int
	// Logf receives structured log lines; nil silences them.
	Logf func(format string, args ...any)
}

// Server is a Postgres wire-protocol listener over one enforcement
// proxy.
type Server struct {
	cfg Config

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	conns   map[*conn]struct{}
	byPid   map[int32]*conn
	nextPid int32

	closeCtx    context.Context
	closeCancel context.CancelFunc
	wg          sync.WaitGroup
}

// NewServer returns an unstarted listener bound to the proxy.
func NewServer(cfg Config) *Server {
	return &Server{cfg: cfg}
}

func (s *Server) maxConns() int {
	if s.cfg.MaxConns > 0 {
		return s.cfg.MaxConns
	}
	return 256
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen binds addr and starts accepting. It returns the actual
// address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	if err := s.cfg.Proxy.OpenDurable(); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.closed = false
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
		s.byPid = make(map[int32]*conn)
	}
	s.closeCtx, s.closeCancel = context.WithCancel(context.Background())
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, cancels in-flight statements, and waits
// for connection handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed && s.ln == nil {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
		s.ln = nil
	}
	if s.closeCancel != nil {
		s.closeCancel()
	}
	for c := range s.conns {
		c.netc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		if len(s.conns) >= s.maxConns() {
			s.mu.Unlock()
			// The client has not completed startup, but an ErrorResponse
			// before AuthenticationOk is legal and what real servers do.
			_, _ = nc.Write(appendErrorResponse(nil, acerr.SQLStateTooManyConns, "too many connections"))
			nc.Close()
			s.logf("pgwire: rejected %s: connection limit (%d) reached", nc.RemoteAddr(), s.maxConns())
			continue
		}
		c := s.register(nc)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer s.unregister(c)
			c.serve(s.closeCtx)
		}()
	}
}

// register allocates the connection's cancellation identity
// (BackendKeyData) and tracks it for Close and CancelRequest routing.
// Caller holds s.mu.
func (s *Server) register(nc net.Conn) *conn {
	s.nextPid++
	var sb [4]byte
	_, _ = rand.Read(sb[:])
	c := &conn{
		srv:    s,
		netc:   nc,
		pid:    s.nextPid,
		secret: int32(binary.BigEndian.Uint32(sb[:])),
	}
	s.conns[c] = struct{}{}
	s.byPid[c.pid] = c
	return c
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	delete(s.byPid, c.pid)
	s.mu.Unlock()
	c.netc.Close()
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
