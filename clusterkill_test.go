// The cluster kill-and-handover integration test (`make clusterkill`):
// a 3-node cluster where one node runs as a SUBPROCESS, owns a slice
// of the corpus sessions (including every history-dependent one, by
// construction), and is SIGKILLed between priming and deciding. The
// surviving entry node must then serve the whole corpus — the dead
// node's sessions restored from the WAL records it shipped to its
// followers — byte-identically to an unkilled single-node control.
//
// The load-bearing rows are the history-dependent allows: if the
// shipped history was lost, the follower decides them as blocks and
// parity fails loudly.
package beyond_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	beyond "repro"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/proxy"
	"repro/internal/sqlvalue"
)

const (
	ckChildEnvFlag  = "ACCLUSTER_KILL_CHILD"
	ckChildEnvAddrs = "ACCLUSTER_KILL_PEERS" // "addrA,addrC"
	ckChildEnvFile  = "ACCLUSTER_KILL_ADDRFILE"
	ckSeedRows      = 24
)

// ckIDs is the fixed member set; the subprocess is always "b".
var ckIDs = [3]string{"a", "b", "c"}

func ckTuning() (time.Duration, time.Duration, time.Duration) {
	return 300 * time.Millisecond, 50 * time.Millisecond, 2 * time.Millisecond // lease, probe, shipflush
}

func ckMembers(addrA, addrB, addrC string) []beyond.ClusterMember {
	return []beyond.ClusterMember{
		{ID: "a", Addr: addrA}, {ID: "b", Addr: addrB}, {ID: "c", Addr: addrC},
	}
}

func ckServe(t *testing.T, f *apps.Fixture, self string, members []beyond.ClusterMember) *beyond.Service {
	t.Helper()
	lease, probe, flush := ckTuning()
	svc, err := beyond.Serve(f.MustNewDB(ckSeedRows), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0",
			beyond.WithDurability(t.TempDir(), beyond.WithFsync(beyond.FsyncOff))),
		beyond.WithCluster(beyond.ClusterConfig{
			Self: self, Members: members,
			LeaseTTL: lease, ProbeInterval: probe, ShipFlush: flush,
		}))
	if err != nil {
		t.Fatalf("serve %s: %v", self, err)
	}
	return svc
}

// TestClusterKillChild is the subprocess body, not a test: cluster
// node "b" serving until SIGKILL. Peer addresses arrive via env; its
// own bound address is published through the addr file.
func TestClusterKillChild(t *testing.T) {
	if os.Getenv(ckChildEnvFlag) == "" {
		t.Skip("subprocess helper; driven by TestClusterKillHandover")
	}
	peers := strings.Split(os.Getenv(ckChildEnvAddrs), ",")
	if len(peers) != 2 {
		t.Fatalf("child peers = %q", os.Getenv(ckChildEnvAddrs))
	}
	f := apps.Calendar()
	svc := ckServe(t, f, "b", ckMembers(peers[0], "", peers[1]))
	svc.ClusterNode().SetMembers(ckMembers(peers[0], svc.V2Addr(), peers[1]))
	addrFile := os.Getenv(ckChildEnvFile)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(svc.V2Addr()), 0o644); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	select {} // serve until SIGKILL
}

// ckDecision renders everything a client observes about one query.
type ckDecision struct {
	Label   string             `json:"label"`
	Allowed bool               `json:"allowed"`
	Reason  string             `json:"reason,omitempty"`
	Columns []string           `json:"columns,omitempty"`
	Rows    [][]sqlvalue.Value `json:"rows,omitempty"`
}

// ckSessionName pins every history-dependent allowed query to the
// subprocess node "b" (salting the name until the ring places it
// there), so the kill provably covers the sessions whose state only
// survives via shipping. Other sessions keep natural placement.
func ckSessionName(ring *cluster.Ring, i int, w apps.WorkloadQuery) string {
	base := fmt.Sprintf("ck-%02d-%s", i, w.Label)
	if w.PrimeSQL == "" || !w.WantAllowed {
		return base
	}
	for k := 0; ; k++ {
		name := fmt.Sprintf("%s-%d", base, k)
		if ring.Owner(name) == "b" {
			return name
		}
	}
}

func ckPrime(t *testing.T, addr string, ring *cluster.Ring, corpus []apps.WorkloadQuery) {
	t.Helper()
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": int64(1)}); err != nil {
		t.Fatalf("upgrade hello: %v", err)
	}
	for i, w := range corpus {
		lane := cl.Lane(uint64(i + 1))
		if _, err := lane.HelloDurable(ctx, ckSessionName(ring, i, w), map[string]any{"MyUId": w.UId}); err != nil {
			t.Fatalf("prime hello %s: %v", w.Label, err)
		}
		if w.PrimeSQL == "" {
			continue
		}
		if _, err := lane.Query(ctx, w.PrimeSQL, w.PrimeArgs...); err != nil {
			t.Fatalf("prime query %s: %v", w.Label, err)
		}
	}
}

func ckDecide(t *testing.T, addr string, ring *cluster.Ring, corpus []apps.WorkloadQuery) ([]ckDecision, int) {
	t.Helper()
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": int64(1)}); err != nil {
		t.Fatalf("upgrade hello: %v", err)
	}
	var out []ckDecision
	restoredTotal := 0
	for i, w := range corpus {
		lane := cl.Lane(uint64(i + 1))
		restored, err := lane.HelloDurable(ctx, ckSessionName(ring, i, w), map[string]any{"MyUId": w.UId})
		if err != nil {
			t.Fatalf("decide hello %s: %v", w.Label, err)
		}
		restoredTotal += restored
		d := ckDecision{Label: w.Label}
		rows, err := lane.Query(ctx, w.SQL, w.Args...)
		switch e := err.(type) {
		case nil:
			d.Allowed = true
			d.Columns = rows.Columns
			d.Rows = rows.Rows
		case *proxy.BlockedError:
			d.Reason = e.Reason
		default:
			t.Fatalf("decide query %s: %v", w.Label, err)
		}
		out = append(out, d)
	}
	return out, restoredTotal
}

func ckRender(t *testing.T, ds []ckDecision) string {
	t.Helper()
	var b strings.Builder
	for _, d := range ds {
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestClusterKillHandover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	f := apps.Calendar()
	corpus := f.Corpus
	// The full ring every node computes; session pinning and the
	// follower invariant both derive from it.
	fullRing := cluster.NewRing(ckIDs[:])

	// Control: one unkilled single-node WAL proxy, same prime/decide
	// sequence under the same session names.
	ctrl, err := beyond.Serve(f.MustNewDB(ckSeedRows), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0",
			beyond.WithDurability(t.TempDir(), beyond.WithFsync(beyond.FsyncOff))))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ckPrime(t, ctrl.V2Addr(), fullRing, corpus)
	control, _ := ckDecide(t, ctrl.V2Addr(), fullRing, corpus)

	// Cluster: a and c in-process, b as the doomed subprocess.
	svcA := ckServe(t, f, "a", ckMembers("", "", ""))
	defer svcA.Close()
	svcC := ckServe(t, f, "c", ckMembers("", "", ""))
	defer svcC.Close()

	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterKillChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		ckChildEnvFlag+"=1",
		ckChildEnvAddrs+"="+svcA.V2Addr()+","+svcC.V2Addr(),
		ckChildEnvFile+"="+addrFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	childUp := false
	defer func() {
		if childUp {
			cmd.Process.Signal(syscall.SIGKILL)
			cmd.Wait()
		}
	}()
	var addrB string
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addrB = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addrB == "" {
		cmd.Process.Kill()
		t.Fatal("child never published its address")
	}
	childUp = true
	members := ckMembers(svcA.V2Addr(), addrB, svcC.V2Addr())
	svcA.ClusterNode().SetMembers(members)
	svcC.ClusterNode().SetMembers(members)

	// Prime the whole corpus through node a; b-owned sessions forward
	// into the subprocess, which ships their WAL records back out to
	// followers a and c.
	ckPrime(t, svcA.V2Addr(), fullRing, corpus)

	// The kill is only meaningful once b has drained its ship queue.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		st := clusterStatus(t, addrB)
		if st.ShipEnqueued > 0 && st.ShipAcked == st.ShipEnqueued && st.ShipDropped == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("child never drained its ship queue: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGKILL mid-corpus: history primed, decisions not yet made.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL child: %v", err)
	}
	cmd.Wait()
	childUp = false

	// Survivors evict b once its probes fail and its lease expires.
	evictDeadline := time.Now().Add(10 * time.Second)
	for {
		if svcA.ClusterNode().Ring().Size() == 2 && svcC.ClusterNode().Ring().Size() == 2 {
			break
		}
		if time.Now().After(evictDeadline) {
			t.Fatalf("survivors never evicted b: %d/%d",
				svcA.ClusterNode().Ring().Size(), svcC.ClusterNode().Ring().Size())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Decide the whole corpus through node a. The dead node's sessions
	// restore on their followers from shipped records; every rendered
	// decision must byte-match the unkilled control.
	crashed, restored := ckDecide(t, svcA.V2Addr(), fullRing, corpus)
	if restored == 0 {
		t.Fatal("handover restored no trace entries: shipping is not engaging, so parity would be vacuous")
	}
	want := ckRender(t, control)
	got := ckRender(t, crashed)
	if got != want {
		t.Fatalf("post-handover decisions diverge from unkilled control:\n--- control ---\n%s--- crashed ---\n%s", want, got)
	}
	// The pinned history-dependent rows must have survived as allows:
	// matching blocks on both sides would pass the diff vacuously.
	for i, d := range crashed {
		w := corpus[i]
		if w.PrimeSQL != "" && w.WantAllowed && !d.Allowed {
			t.Fatalf("%s blocked after handover: shipped history was not restored", d.Label)
		}
	}
}
