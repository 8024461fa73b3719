package proxy

import (
	"context"
	"fmt"

	"repro/internal/acerr"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The session lifecycle (DESIGN.md §7), the same on every ingress: a
// hello opens a session (openSession), building the complete new state
// before it replaces the old; and a failed hello leaves the empty
// session every session starts as (newSession).

// session is per-lane state: principal attributes and history.
type session struct {
	attrs map[string]sqlvalue.Value
	tr    *trace.Trace
	// name is the durable session name from hello ("" for ephemeral
	// sessions); shadow diff records carry it as the session identity.
	name string
}

// newTrace is the one constructor of session traces, ephemeral and —
// through the WAL manager, which OpenDurable hands it — durable. It
// applies HistoryWindow, puts the trace under the database's write
// clock, so that a write retires the facts it may have falsified, and
// attaches the server's fact-cache counters for the trace's life.
func (s *Server) newTrace() *trace.Trace {
	tr := &trace.Trace{}
	tr.SetWindow(s.HistoryWindow)
	if s.DB != nil {
		tr.SetClock(s.DB)
	}
	tr.CountInto(s.mFactReused, s.mFactTrans)
	return tr
}

// newSession builds the empty session: no attributes, an empty trace.
func (s *Server) newSession() *session {
	return &session{attrs: map[string]sqlvalue.Value{}, tr: s.newTrace()}
}

// openSession serves a hello on sess: it installs the new state, or on
// any failure the empty session, so a failed re-hello never decides
// for the new principal on the old principal's history.
func (s *Server) openSession(req *Request, sess *session) Response {
	next, resp := s.buildSession(req)
	if resp.Error != "" {
		next = s.newSession()
	} else if req.MaxProto >= ProtoV2 {
		resp.Proto = ProtoV2
	}
	*sess = *next
	return resp
}

// buildSession decodes a hello's attributes and builds its session:
// restored from (or declared in) the WAL, or fresh and ephemeral.
func (s *Server) buildSession(req *Request) (*session, Response) {
	next := &session{attrs: make(map[string]sqlvalue.Value, len(req.Session)), name: req.Name}
	for k, v := range req.Session {
		sv, err := decodeValue(v)
		if err != nil {
			return nil, Response{Error: fmt.Sprintf("session attribute %s: %v", k, err), Code: acerr.CodeBadRequest}
		}
		next.attrs[k] = sv
	}
	resp := Response{OK: true}
	if wal := s.Durable(); wal != nil && req.Name != "" {
		// Durable session: the trace is shared, WAL-hooked, and — after
		// a restart — restored with its earlier history.
		tr, restored, err := wal.Session(req.Name, next.attrs)
		if err != nil {
			return nil, Response{Error: err.Error(), Code: acerr.CodeEngine}
		}
		if restored > 0 && s.Checker != nil {
			// Pre-derive the restored history's facts so the first
			// decision pays cache extension, not a full re-translation.
			s.Checker.WarmTrace(tr)
		}
		next.tr, resp.Restored = tr, restored
	}
	if next.tr == nil {
		next.tr = s.newTrace()
	}
	return next, resp
}

// Session is the exported handle for in-process use.
type Session struct{ inner *session }

// NewSession creates an in-process session for HandleInCtx with attrs
// as if said in a hello. The serving Server builds its trace on first
// use, windowed like a lane's.
func NewSession(attrs map[string]sqlvalue.Value) *Session {
	if attrs == nil {
		attrs = map[string]sqlvalue.Value{}
	}
	return &Session{inner: &session{attrs: attrs}}
}

// Trace exposes the session's history (nil before its first request).
func (s *Session) Trace() *trace.Trace { return s.inner.tr }

// HandleInCtx processes a request against an exported session under a
// caller-supplied context, with no socket: the in-process entry that
// pgwire, benchmarks and tests use.
func (s *Server) HandleInCtx(ctx context.Context, req *Request, sess *Session) Response {
	if sess.inner.tr == nil {
		sess.inner.tr = s.newTrace()
	}
	return s.handle(ctx, req, sess.inner)
}
