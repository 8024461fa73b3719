package proxy

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"time"

	"repro/internal/acerr"
)

// The listener core. Every ingress — the v2 line protocol here, the
// Postgres wire protocol in internal/pgwire — listens through it, so
// one accept loop, one connection table (one MaxConns over all of
// them), one idle deadline (ReadTimeout) and one drain (Close) hold
// for every connection the server has.

// Ingress is a wire protocol a Server listens for.
type Ingress interface {
	// Serve runs one accepted connection until it ends; the core then
	// closes it. ctx is canceled when the server closes.
	Serve(ctx context.Context, c net.Conn)
	// Refuse writes the protocol's connection-limit reply to a
	// connection past MaxConns; the core then closes it.
	Refuse(c net.Conn)
}

// v2 is the line protocol's Ingress.
type v2 struct{ s *Server }

func (v v2) Serve(ctx context.Context, c net.Conn) { v.s.serveConn(ctx, c) }

func (v2) Refuse(c net.Conn) {
	_ = json.NewEncoder(c).Encode(Response{
		Error: "server at connection limit",
		Code:  acerr.CodeTooManyConns,
	})
}

// Listen starts accepting v2 line-protocol connections on addr (e.g.
// "127.0.0.1:0"). It returns the bound address immediately;
// connections are served on background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) { return s.ListenIngress(addr, v2{s}) }

// ListenIngress starts accepting connections of in on addr, under the
// connection limit, idle deadline and drain of every other listener of
// s. It opens the WAL first (OpenDurable), so recovery has replayed
// before any connection is accepted.
func (s *Server) ListenIngress(addr string, in Ingress) (string, error) {
	if err := s.OpenDurable(); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed || s.closeCtx == nil {
		// The first listener, or the first after a Close.
		s.closed = false
		s.closeCtx, s.closeCancel = context.WithCancel(context.Background())
	}
	s.lns = append(s.lns, ln)
	ctx := s.closeCtx
	s.mu.Unlock()
	go s.acceptLoop(ctx, ln, in)
	return ln.Addr().String(), nil
}

// Close stops every listener and drains every connection: it cancels
// every in-flight request context (aborting checks and scans
// mid-decision), interrupts each connection's pending read or write,
// waits for every handler to return, and only then closes the WAL.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed && s.lns == nil {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	var err error
	for _, ln := range s.lns {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.lns = nil
	if s.closeCancel != nil {
		s.closeCancel()
	}
	// Wake blocked readers (and writers stuck on dead peers); handlers
	// mid-request finish normally and notice on the next read.
	for c := range s.conns {
		_ = c.SetDeadline(time.Now())
	}
	wal := s.wal
	s.wal = nil
	s.mu.Unlock()
	s.wg.Wait()
	// Drain complete: no handler can append again. Checkpoint and close
	// the WAL so a restart replays one small checkpoint, not the whole
	// tail. (A crash before this point is what recovery is for.)
	if wal != nil {
		if werr := wal.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) acceptLoop(ctx context.Context, ln net.Listener, in Ingress) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mConnsTotal.Inc()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.maxConns() {
			s.mu.Unlock()
			s.mConnsRejected.Inc()
			in.Refuse(conn)
			conn.Close()
			s.logf("proxy: rejected %s: connection limit (%d) reached", conn.RemoteAddr(), s.maxConns())
			continue
		}
		s.conns[conn] = struct{}{}
		s.mConnsActive.Inc()
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			in.Serve(ctx, conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mConnsActive.Add(-1)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// DeadlineConn is what ReadSide needs of a connection.
type DeadlineConn interface {
	io.Reader
	SetDeadline(t time.Time) error
}

// ReadSide returns c's read side as every ingress reads it. Before each
// kernel read — when the protocol has handled every request it holds
// and is about to wait on the client — it renews the idle deadline,
// both directions, by ReadTimeout (with ReadTimeout 0 it makes no
// syscall), then flush puts the replies the protocol holds on the wire.
// Replies so coalesce across a pipelined burst, yet are on the wire
// before the server waits for the client; and a client that neither
// sends nor reads for ReadTimeout fails the flush or the read. ctx is
// the one Serve was given.
func (s *Server) ReadSide(ctx context.Context, c DeadlineConn, flush func() error) io.Reader {
	return &connReader{c: c, ctx: ctx, timeout: s.ReadTimeout, flush: flush}
}

type connReader struct {
	c       DeadlineConn
	ctx     context.Context
	timeout time.Duration
	flush   func() error
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.timeout > 0 {
		_ = r.c.SetDeadline(time.Now().Add(r.timeout))
		// Close cancels ctx, then expires every deadline to wake the
		// readers: a renewal between the two must not undo the wake-up.
		if err := r.ctx.Err(); err != nil {
			return 0, err
		}
	}
	if err := r.flush(); err != nil {
		return 0, err
	}
	return r.c.Read(p)
}
