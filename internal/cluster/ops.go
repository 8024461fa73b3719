package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/acerr"
	"repro/internal/proxy"
)

// HandleOp serves the cluster.* control ops — the small v2 op set
// peers (and the accluster CLI) speak:
//
//	cluster.ping      liveness probe; answers self
//	cluster.status    full view: members, leases, forwarding, ship lag
//	cluster.ship      a peer owner's WAL record batch + lease assertion
func (n *Node) HandleOp(ctx context.Context, req *proxy.Request) proxy.Response {
	switch req.Op {
	case "cluster.ping":
		return proxy.Response{OK: true, Cluster: &proxy.ClusterBody{Self: n.cfg.Self}}
	case "cluster.status":
		return proxy.Response{OK: true, Cluster: n.statusBody()}
	case "cluster.ship":
		return n.handleShip(req)
	}
	return proxy.Response{
		Error: fmt.Sprintf("unknown cluster op %q", req.Op),
		Code:  acerr.CodeBadRequest,
	}
}

// handleShip is the follower half of WAL shipping: verify the lease
// assertion, persist each shipped record (wrapped, via the durable
// manager), and extend the lease. A node with no WAL configured
// cannot follow.
func (n *Node) handleShip(req *proxy.Request) proxy.Response {
	origin := req.Node
	if origin == "" {
		return proxy.Response{Error: "cluster.ship: missing origin node", Code: acerr.CodeBadRequest}
	}
	m := n.wal.Load()
	if m == nil {
		return proxy.Response{Error: "cluster.ship: follower has no WAL directory configured", Code: acerr.CodeBadRequest}
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = n.cfg.LeaseTTL
	}
	accepted, isNew := n.leases.renew(origin, req.Term, ttl, time.Now())
	if !accepted {
		n.mLeaseRejects.Inc()
		return proxy.Response{
			Error: fmt.Sprintf("cluster.ship: stale lease term %d from %s (granted %d)", req.Term, origin, n.leases.term(origin)),
			Code:  acerr.CodeBadRequest,
		}
	}
	if isNew {
		n.mLeaseGrants.Inc()
		if err := m.RecordLease(origin, req.Term); err != nil {
			return proxy.Response{Error: "cluster.ship: persist lease: " + err.Error(), Code: acerr.CodeEngine}
		}
	} else {
		n.mLeaseRenewals.Inc()
	}
	for i := range req.Ship {
		r := &req.Ship[i]
		if err := m.ApplyShipped(origin, r.Type, r.Payload); err != nil {
			return proxy.Response{
				Error: fmt.Sprintf("cluster.ship: record %d (session %s): %v", i, r.Session, err),
				Code:  acerr.CodeEngine,
			}
		}
	}
	return proxy.Response{OK: true}
}

// statusBody assembles the full cluster.status payload.
func (n *Node) statusBody() *proxy.ClusterBody {
	body := &proxy.ClusterBody{
		Self: n.cfg.Self,

		ForwardedSessions: n.forwardedSessions.Load(),
		ForwardedOps:      n.mForwards.Value(),
		ForwardErrors:     n.mForwardErrs.Value(),

		ShipEnqueued: n.mShipEnqueued.Value(),
		ShipAcked:    n.mShipAcked.Value(),
		ShipDropped:  n.mShipDropped.Value(),
		ShipBytes:    n.mShipBytes.Value(),
		Takeovers:    n.mTakeovers.Value(),
	}
	n.mu.Lock()
	for _, id := range n.order {
		st := n.members[id]
		body.Members = append(body.Members, proxy.MemberStatus{
			ID:    id,
			Addr:  st.Addr,
			Self:  id == n.cfg.Self,
			Alive: st.alive, // a node never probes, or marks dead, itself
		})
	}
	n.mu.Unlock()
	snaps := n.leases.snapshot(time.Now())
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].origin < snaps[j].origin })
	for _, ls := range snaps {
		body.Leases = append(body.Leases, proxy.LeaseStatus{
			Origin:          ls.origin,
			Term:            ls.term,
			ExpiresInMillis: ls.remaining.Milliseconds(),
		})
	}
	return body
}
