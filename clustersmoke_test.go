package beyond_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	beyond "repro"
	"repro/internal/apps"
	"repro/internal/proxy"
)

// startCluster brings up n clustered Serve stacks over the fixture,
// each with its own database, checker, WAL directory, and v2 listener
// (and whatever opts add), then installs the bound addresses as the
// shared member set. Tuning is aggressive (short leases, fast probes)
// so failover completes in test time.
func startCluster(t *testing.T, f *apps.Fixture, n int, opts ...beyond.ServeOption) ([]*beyond.Service, []string) {
	t.Helper()
	ids := make([]string, n)
	members := make([]beyond.ClusterMember, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
		members[i] = beyond.ClusterMember{ID: ids[i]}
	}
	svcs := make([]*beyond.Service, n)
	for i, id := range ids {
		svc, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(f.Policy()), beyond.Enforce,
			append([]beyond.ServeOption{beyond.WithV2Listener("127.0.0.1:0",
				beyond.WithDurability(t.TempDir(), beyond.WithFsync(beyond.FsyncOff))),
				beyond.WithCluster(beyond.ClusterConfig{
					Self:          id,
					Members:       members,
					LeaseTTL:      300 * time.Millisecond,
					ProbeInterval: 50 * time.Millisecond,
					ShipFlush:     2 * time.Millisecond,
					Logf:          t.Logf,
				})}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
		t.Cleanup(func() { svc.Close() })
	}
	live := make([]beyond.ClusterMember, n)
	for i, id := range ids {
		live[i] = beyond.ClusterMember{ID: id, Addr: svcs[i].V2Addr()}
	}
	for _, svc := range svcs {
		svc.ClusterNode().SetMembers(live)
	}
	return svcs, ids
}

// durableDecision runs one workload query on a named durable session
// over a fresh connection: hello (restoring any persisted history),
// optionally the priming query, then the decision query.
func durableDecision(t *testing.T, addr, name string, w apps.WorkloadQuery, prime bool) (decision, int) {
	t.Helper()
	ctx := context.Background()
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	restored, err := cl.HelloDurable(ctx, name, map[string]any{"MyUId": w.UId})
	if err != nil {
		t.Fatalf("%s: hello %s: %v", w.Label, name, err)
	}
	if prime && w.PrimeSQL != "" {
		if _, err := cl.Query(ctx, w.PrimeSQL, w.PrimeArgs...); err != nil {
			t.Fatalf("%s: prime: %v", w.Label, err)
		}
	}
	res, err := cl.Query(ctx, w.SQL, w.Args...)
	if err != nil {
		var be *proxy.BlockedError
		if !errors.As(err, &be) {
			t.Fatalf("%s: query: %v", w.Label, err)
		}
		return decision{allowed: false, reason: be.Reason}, restored
	}
	return decision{allowed: true, rows: len(res.Rows)}, restored
}

// clusterStatus fetches one node's cluster.status view.
func clusterStatus(t *testing.T, addr string) *proxy.ClusterBody {
	t.Helper()
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cl.Do(ctx, &proxy.Request{Op: "cluster.status"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Cluster == nil {
		t.Fatalf("cluster.status: %+v", resp)
	}
	return resp.Cluster
}

// TestClusterSmoke is the CI smoke for cluster mode (`make
// clustersmoke`): a 3-node cluster serves a mixed-session corpus
// through ONE node — some sessions local, some forwarded to their
// owners — and every decision must byte-match a single-node control
// stack. Then one non-entry node is killed and a session it owned
// (with history-dependent state) is re-decided through the surviving
// entry node: the follower that held its shipped WAL records must
// restore it and answer exactly as the control does.
func TestClusterSmoke(t *testing.T) {
	f, err := apps.ByName("calendar")
	if err != nil {
		t.Fatal(err)
	}
	svcs, ids := startCluster(t, f, 3)
	entry := svcs[0] // every client request enters here

	ctrl, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0",
			beyond.WithDurability(t.TempDir(), beyond.WithFsync(beyond.FsyncOff))))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Phase 1: cross-node decision parity. Placement is deterministic
	// (the ring is a pure function of ids and names), so assert the
	// corpus really exercises both paths.
	ring := entry.ClusterNode().Ring()
	owners := map[string]int{}
	for i, w := range f.Corpus {
		name := fmt.Sprintf("cs-%02d-%s", i, w.Label)
		owners[ring.Owner(name)]++
		got, _ := durableDecision(t, entry.V2Addr(), name, w, true)
		want, _ := durableDecision(t, ctrl.V2Addr(), name, w, true)
		if got != want {
			t.Fatalf("%s (session %s, owner %s): cluster decision %+v != control %+v",
				w.Label, name, ring.Owner(name), got, want)
		}
		if got.allowed != w.WantAllowed {
			t.Fatalf("%s: decision %+v contradicts corpus label %v", w.Label, got, w.WantAllowed)
		}
	}
	if owners[ids[0]] == 0 || owners[ids[0]] == len(f.Corpus) {
		t.Fatalf("corpus placement not mixed: %v — rename sessions so both paths run", owners)
	}
	st := clusterStatus(t, entry.V2Addr())
	if st.ForwardedOps == 0 {
		t.Fatalf("entry node forwarded nothing: %+v", st)
	}
	// Every forwarding client has disconnected, and a connection's end
	// closes its sessions: the open forwarded-session count returns to
	// zero once the entry node has noticed each close.
	for deadline := time.Now().Add(5 * time.Second); st.ForwardedSessions != 0; st = clusterStatus(t, entry.V2Addr()) {
		if time.Now().After(deadline) {
			t.Fatalf("entry node still counts %d forwarded session(s) after every client closed", st.ForwardedSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: forced handover. Pick a history-dependent allowed query,
	// pin its session to the node we will kill, and prime it through
	// the entry node.
	var hw apps.WorkloadQuery
	for _, w := range f.Corpus {
		if w.PrimeSQL != "" && w.WantAllowed {
			hw = w
			break
		}
	}
	if hw.SQL == "" {
		t.Fatal("corpus has no history-dependent allowed query")
	}
	victim := ids[1]
	name := ""
	for k := 0; ; k++ {
		cand := fmt.Sprintf("handover-%d", k)
		if ring.Owner(cand) == victim {
			name = cand
			break
		}
	}
	before, _ := durableDecision(t, entry.V2Addr(), name, hw, true)
	ctrlBefore, _ := durableDecision(t, ctrl.V2Addr(), name, hw, true)
	if before != ctrlBefore {
		t.Fatalf("pre-kill decision %+v != control %+v", before, ctrlBefore)
	}
	if !before.allowed {
		t.Fatalf("handover query blocked before kill: %+v", before)
	}

	// Wait for the victim to drain its ship queue — the follower must
	// hold the full history before the owner dies.
	deadline := time.Now().Add(10 * time.Second)
	for {
		vs := clusterStatus(t, svcs[1].V2Addr())
		if vs.ShipEnqueued > 0 && vs.ShipAcked == vs.ShipEnqueued && vs.ShipDropped == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never drained its ship queue: %+v", vs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := svcs[1].Close(); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}

	// Survivors converge: probes fail, the victim's lease expires, the
	// ring drops to two members on both survivors.
	for {
		a := svcs[0].ClusterNode().Ring()
		c := svcs[2].ClusterNode().Ring()
		if a.Size() == 2 && c.Size() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never evicted %s: sizes %d/%d", victim, a.Size(), c.Size())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := svcs[0].ClusterNode().Ring().Owner(name); got != ring.Follower(name) {
		t.Fatalf("failover owner %s != ship follower %s", got, ring.Follower(name))
	}

	// The session re-decides through the entry node WITHOUT re-priming:
	// only the shipped history can make it allowed, and the verdict,
	// reason, and row count must byte-match the single-node control.
	after, restored := durableDecision(t, entry.V2Addr(), name, hw, false)
	ctrlAfter, _ := durableDecision(t, ctrl.V2Addr(), name, hw, false)
	if restored == 0 {
		t.Fatal("takeover restored no history — shipped WAL records were lost")
	}
	if after != ctrlAfter {
		t.Fatalf("post-handover decision %+v != control %+v", after, ctrlAfter)
	}
	if !after.allowed {
		t.Fatalf("history-dependent query blocked after handover: %+v", after)
	}
	if st := clusterStatus(t, entry.V2Addr()); st.Takeovers == 0 && clusterStatus(t, svcs[2].V2Addr()).Takeovers == 0 {
		t.Fatalf("no survivor recorded a takeover")
	}
}

// TestClusterPgForwardedRows: a pgwire session whose durable name a
// peer owns is forwarded there, and the rows of its answers, which come
// back in the owner's response rather than from a local scan, still
// reach the client as DataRows: for every allowed corpus query the
// entry node frames as many as a single-node stack does.
func TestClusterPgForwardedRows(t *testing.T) {
	f, err := apps.ByName("calendar")
	if err != nil {
		t.Fatal(err)
	}
	svcs, ids := startCluster(t, f, 2, beyond.WithPgListener("127.0.0.1:0"))
	ctrl, err := beyond.Serve(f.MustNewDB(20), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithPgListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ring := svcs[0].ClusterNode().Ring()
	framed := 0
	for i, w := range f.Corpus {
		name := fmt.Sprintf("pgf-%02d", i)
		for j := 0; ring.Owner(name) == ids[0]; j++ {
			name = fmt.Sprintf("pgf-%02d-%d", i, j)
		}
		params := map[string]string{"session": name, "attr.MyUId": fmt.Sprint(w.UId)}
		got := pgDial(t, svcs[0].PgAddr(), params)
		want := pgDial(t, ctrl.PgAddr(), params)
		for _, p := range []*pgClient{got, want} {
			if w.PrimeSQL != "" {
				p.extQuery(t, w.PrimeSQL, w.PrimeArgs)
			}
		}
		n, state, msg := got.extQuery(t, w.SQL, w.Args)
		wn, wstate, _ := want.extQuery(t, w.SQL, w.Args)
		got.close()
		want.close()
		if n != wn || state != wstate {
			t.Fatalf("%s (session %s on %s): forwarded %d rows, %q %s; control %d rows, %q", w.Label, name, ring.Owner(name), n, state, msg, wn, wstate)
		}
		framed += n
	}
	if st := clusterStatus(t, svcs[0].V2Addr()); st.ForwardedOps == 0 || framed == 0 {
		t.Fatalf("forwarded %d ops framing %d rows; want both above 0", st.ForwardedOps, framed)
	}
}
