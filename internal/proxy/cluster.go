package proxy

import (
	"context"
	"strings"

	"repro/internal/acerr"
	"repro/internal/durable"
)

// Cluster mode (internal/cluster, DESIGN.md §16). The proxy stays
// ignorant of rings, leases, and peers: it asks one handler where a
// durable session lives, relays requests for sessions owned elsewhere
// through an opaque remote handle, and hands cluster.* control ops to
// the handler wholesale. internal/cluster implements the handler; the
// interface lives here so the dependency points cluster → proxy, never
// back.

// ClusterHandler routes durable sessions across an enforcement
// cluster. Implementations must be safe for concurrent use.
type ClusterHandler interface {
	// Owner resolves a durable session name to the node that owns it.
	// local reports whether that node is this one; addr is the owner's
	// v2 address (informational when local).
	Owner(name string) (addr string, local bool)
	// OpenRemote forwards a durable hello to the session's owner and
	// returns a handle relaying the session's subsequent requests plus
	// the owner's hello response. The caller closes the handle when
	// the session closes, or at once if the owner's response is an
	// error.
	OpenRemote(ctx context.Context, req *Request) (RemoteSession, *Response, error)
	// HandleOp serves one cluster.* control op (ping, status, ship);
	// an unknown op gets an error response.
	HandleOp(ctx context.Context, req *Request) Response
	// WALOpened runs once when the server's durable manager opens,
	// before any session uses it; the cluster installs its ship hook
	// here.
	WALOpened(m *durable.Manager)
}

// RemoteSession relays one forwarded session's requests to its owner.
type RemoteSession interface {
	// Do sends one request and returns the owner's raw response
	// (application-level errors stay in Response.Error; the error
	// return is transport failure only).
	Do(ctx context.Context, req *Request) (*Response, error)
	// Close releases the handle when the forwarding session closes.
	// It does not end the session on the owner — durable sessions
	// outlive connections by design.
	Close()
}

// forwardRemote relays one request over a forwarded session's remote
// handle. The owner's response comes back verbatim except for the ID,
// which the local dispatch layer re-stamps, and the rows a Sink takes.
func (s *Server) forwardRemote(ctx context.Context, req *Request, sess *session) Response {
	resp, err := sess.remote.Do(ctx, req)
	if err != nil {
		return Response{Error: "cluster forward: " + err.Error(), Code: acerr.CodeInternal}
	}
	out := *resp
	out.ID = 0
	if req.Sink != nil {
		req.sink(out.Rows)
		out.Rows = nil
	}
	return out
}

// handleClusterOp dispatches a cluster.* control op to the handler.
func (s *Server) handleClusterOp(ctx context.Context, req *Request) Response {
	h := s.Cluster
	if h == nil {
		return Response{Error: "cluster mode is not enabled", Code: acerr.CodeBadRequest}
	}
	return h.HandleOp(ctx, req)
}

// isClusterOp reports whether op belongs to the cluster.* control set.
func isClusterOp(op string) bool { return strings.HasPrefix(op, "cluster.") }
