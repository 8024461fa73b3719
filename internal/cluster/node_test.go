package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/acerr"
	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/obsv"
	"repro/internal/proxy"
)

// attachedNode builds node "a" over members and attaches it to a
// server whose metrics are off, so every count below comes from the
// node's own fallback registry.
func attachedNode(t *testing.T, members []Member) *Node {
	t.Helper()
	n, err := New(Config{Self: "a", Members: members})
	if err != nil {
		t.Fatal(err)
	}
	f := apps.Calendar()
	srv := proxy.NewServer(f.MustNewDB(2), checker.New(f.Policy()), proxy.Enforce)
	srv.Metrics = obsv.Disabled()
	n.Attach(srv)
	t.Cleanup(func() { n.Close() })
	return n
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestControlOps: the node serves ping, status and ship, and nothing
// else — draining and forced rebalancing are not cluster operations.
func TestControlOps(t *testing.T) {
	n := attachedNode(t, []Member{{ID: "a"}, {ID: "b"}})
	ctx := context.Background()
	if resp := n.HandleOp(ctx, &proxy.Request{Op: "cluster.ping"}); !resp.OK || resp.Cluster.Self != "a" {
		t.Fatalf("ping = %+v", resp)
	}
	st := n.HandleOp(ctx, &proxy.Request{Op: "cluster.status"})
	if !st.OK || len(st.Cluster.Members) != 2 || !st.Cluster.Members[0].Self {
		t.Fatalf("status = %+v", st.Cluster)
	}
	for _, op := range []string{"cluster.drain", "cluster.rebalance", "cluster.nope"} {
		resp := n.HandleOp(ctx, &proxy.Request{Op: op})
		if resp.OK || resp.Code != acerr.CodeBadRequest {
			t.Fatalf("%s = %+v, want a bad-request error", op, resp)
		}
	}
}

// TestStatusCountsWithMetricsDisabled: cluster.status reads its ship
// and forwarding counts from the cluster.* instruments, so they must
// count even when the server exports no metrics — otherwise ship lag
// reads zero and a drained queue cannot be told from an idle one.
func TestStatusCountsWithMetricsDisabled(t *testing.T) {
	n := attachedNode(t, []Member{{ID: "a"}, {ID: "b"}})
	// A session this node owns ships to "b"; one it does not would
	// ship to itself and be skipped.
	name := ""
	for k := 0; name == ""; k++ {
		if cand := fmt.Sprintf("s%d", k); n.Ring().Owner(cand) == "a" {
			name = cand
		}
	}
	n.ship.enqueue(name, 1, []byte("payload"))
	st := n.statusBody()
	if st.ShipEnqueued != 1 || st.ShipBytes != int64(len("payload")) {
		t.Fatalf("status after one enqueue: enqueued=%d bytes=%d", st.ShipEnqueued, st.ShipBytes)
	}
}

// TestProbeWaitsOutTheLease pins the takeover gate: a peer whose
// probes fail stays in the ring while it holds an unexpired lease
// here, and leaves it — counted as a takeover — once the lease has
// expired.
func TestProbeWaitsOutTheLease(t *testing.T) {
	n := attachedNode(t, []Member{{ID: "a"}, {ID: "b", Addr: deadAddr(t)}})
	if accepted, _ := n.leases.renew("b", 1, time.Hour, time.Now()); !accepted {
		t.Fatal("lease not granted")
	}
	for i := 0; i < 3; i++ {
		n.probeOnce()
	}
	if got := n.Ring().Size(); got != 2 {
		t.Fatalf("peer left the ring under an active lease: size %d", got)
	}

	// The same term, already expired: the gate opens on the next probe.
	n.leases = newLeaseTable()
	n.leases.seed("b", 1, time.Now())
	n.probeOnce()
	if got := n.Ring().Size(); got != 1 {
		t.Fatalf("dead peer with an expired lease still in the ring: size %d", got)
	}
	if st := n.statusBody(); st.Takeovers != 1 || st.Members[1].Alive {
		t.Fatalf("after takeover: takeovers=%d members=%+v", st.Takeovers, st.Members)
	}
}

// TestClosedSIDIsReused: a forwarded session rides a session id on the
// pooled peer connection, and closing its handle frees that id for the
// next OpenRemote. The owner then keeps one lane per session forwarded
// at once, not one per forwarded hello.
func TestClosedSIDIsReused(t *testing.T) {
	f := apps.Calendar()
	owner := proxy.NewServer(f.MustNewDB(2), checker.New(f.Policy()), proxy.Enforce)
	owner.Logf = t.Logf
	addr, err := owner.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })
	n := attachedNode(t, []Member{{ID: "a"}, {ID: "b", Addr: addr}})
	name := ""
	for k := 0; name == ""; k++ {
		if cand := fmt.Sprintf("s%d", k); n.Ring().Owner(cand) == "b" {
			name = cand
		}
	}
	open := func() *remoteSession {
		t.Helper()
		r, resp, err := n.OpenRemote(context.Background(), &proxy.Request{Op: "hello", Name: name, Session: map[string]any{"MyUId": 1}})
		if err != nil || resp.Error != "" {
			t.Fatalf("OpenRemote: %v %+v", err, resp)
		}
		return r.(*remoteSession)
	}
	r1, r2 := open(), open()
	if r1.sid == r2.sid {
		t.Fatalf("two open handles share session id %d", r1.sid)
	}
	r1.Close()
	if r3 := open(); r3.sid != r1.sid {
		t.Fatalf("after closing id %d the next OpenRemote took %d", r1.sid, r3.sid)
	} else {
		r3.Close()
	}
	r2.Close()
	if st := n.statusBody(); st.ForwardedSessions != 0 {
		t.Fatalf("forwarded sessions = %d after every handle closed", st.ForwardedSessions)
	}
}
