package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	beyond "repro"
	"repro/internal/apps"
	"repro/internal/loadgen"
	"repro/internal/proxy"
)

// The cluster sweep answers "what does an enforcement CLUSTER sustain?"
// the same way -saturate answers it for one node: per node count it
// brings up N in-process Serve stacks joined into one ring (durable
// WAL, FsyncOff, live WAL shipping between peers), spreads named
// durable sessions across all N entry points, and knee-searches the
// highest aggregate offered QPS whose p99 holds the SLO. Sessions are
// MIXED by construction — the ring places each name independently of
// the node its client happens to enter through — so roughly (N-1)/N of
// traffic pays the forwarding hop, and the row reports the local vs
// forwarded split plus the nodes' own forward/ship accounting.
//
// Every node shares one process (and on small containers one core), so
// the sweep measures protocol and shipping overhead honestly but can
// only show aggregate scaling when GOMAXPROCS allows real parallelism;
// the row records GoMaxProcs context via the enclosing document.

// clusterBenchConfig parameterizes the sweep.
type clusterBenchConfig struct {
	Nodes    []int         // cluster sizes to sweep
	Sessions int           // durable sessions spread across the cluster
	SLO      time.Duration // p99 budget a passing step must hold
	Budget   time.Duration // wall-clock bound per node count
	Step     time.Duration // target duration of one load step
	StartQPS float64
}

func defaultClusterBenchConfig() clusterBenchConfig {
	return clusterBenchConfig{
		Nodes:    []int{1, 2, 4, 8},
		Sessions: 192,
		SLO:      5 * time.Millisecond,
		Budget:   25 * time.Second,
		Step:     2 * time.Second,
		StartQPS: 250,
	}
}

// clusterRow is one node count's measurement in the benchmark
// document. KneeQPS is the aggregate sustained rate at the SLO;
// LocalQPS/ForwardedQPS split it by session placement at the knee.
// ForwardedOps and the Ship* counters come from the nodes' own
// cluster.status accounting over the whole search, pinning that the
// sweep really exercised forwarding and WAL shipping.
type clusterRow struct {
	Nodes             int       `json:"nodes"`
	Sessions          int       `json:"sessions"`
	LocalSessions     int       `json:"localSessions"`
	ForwardedSessions int       `json:"forwardedSessions"`
	SLOMicros         int64     `json:"sloMicros"`
	KneeQPS           float64   `json:"kneeQPS"`
	KneeP99Micros     int64     `json:"kneeP99Micros"`
	LocalQPS          float64   `json:"localQPS"`
	ForwardedQPS      float64   `json:"forwardedQPS"`
	ForwardedOps      int64     `json:"forwardedOps"`
	ShipEnqueued      int64     `json:"shipEnqueued,omitempty"`
	ShipAcked         int64     `json:"shipAcked,omitempty"`
	ShipDropped       int64     `json:"shipDropped,omitempty"`
	Steps             []satStep `json:"steps"`
}

// clusterTarget drives one live cluster: a client per node, each
// schedule session keyed to a named durable session through a fixed
// entry node, with the local/forwarded split precomputed from the ring.
type clusterTarget struct {
	svcs    []*beyond.Service
	clients []*proxy.Client
	entry   []int  // session -> client index
	local   []bool // session -> served by its entry node?
	users   int

	localOps atomic.Int64
	fwdOps   atomic.Int64
}

// Do implements loadgen.Target: one point SELECT on the session's lane
// through its entry node. Placement cost (forwarding) is inside the
// measured latency, exactly as a cluster client would experience it.
func (t *clusterTarget) Do(ctx context.Context, op loadgen.Op) error {
	cl := t.clients[t.entry[op.Session]]
	if t.local[op.Session] {
		t.localOps.Add(1)
	} else {
		t.fwdOps.Add(1)
	}
	_, err := cl.Lane(uint64(op.Session)+1).Query(ctx,
		"SELECT EId FROM Attendance WHERE UId = ?", op.Session%t.users+1)
	return err
}

func (t *clusterTarget) close() {
	for _, cl := range t.clients {
		if cl != nil {
			cl.Close()
		}
	}
	for _, svc := range t.svcs {
		if svc != nil {
			svc.Close()
		}
	}
}

// opSplit snapshots and resets the per-step placement counters.
func (t *clusterTarget) opSplit() (local, fwd int64) {
	return t.localOps.Swap(0), t.fwdOps.Swap(0)
}

// newClusterTarget stands up n clustered Serve stacks (each with its
// own database, checker, WAL dir) plus one client per node, and keys
// cfg.Sessions durable sessions round-robin across the entry points.
func newClusterTarget(n int, cfg clusterBenchConfig) (*clusterTarget, []string, func(), error) {
	ctx := context.Background()
	f := apps.Calendar()
	const users = 64

	ids := make([]string, n)
	members := make([]beyond.ClusterMember, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench%d", i)
		members[i] = beyond.ClusterMember{ID: ids[i]}
	}
	t := &clusterTarget{users: users}
	var dirs []string
	cleanup := func() {
		t.close()
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	for _, id := range ids {
		dir, err := os.MkdirTemp("", "acbench-cluster-*")
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		dirs = append(dirs, dir)
		svc, err := beyond.Serve(f.MustNewDB(users), beyond.NewChecker(f.Policy()), beyond.Enforce,
			beyond.WithV2Listener("127.0.0.1:0",
				beyond.WithDurability(dir, beyond.WithFsync(beyond.FsyncOff))),
			beyond.WithCluster(beyond.ClusterConfig{
				Self:    id,
				Members: members,
				// No failover in the bench: probes just keep the view
				// alive, and the forward window is sized for load.
				LeaseTTL:      2 * time.Second,
				ProbeInterval: 250 * time.Millisecond,
				ShipFlush:     2 * time.Millisecond,
				ForwardWindow: 256,
			}))
		if err != nil {
			cleanup()
			return nil, nil, nil, fmt.Errorf("node %s: %w", id, err)
		}
		t.svcs = append(t.svcs, svc)
	}
	live := make([]beyond.ClusterMember, n)
	for i, id := range ids {
		live[i] = beyond.ClusterMember{ID: id, Addr: t.svcs[i].V2Addr()}
	}
	for _, svc := range t.svcs {
		svc.ClusterNode().SetMembers(live)
	}

	ring := t.svcs[0].ClusterNode().Ring()
	t.entry = make([]int, cfg.Sessions)
	t.local = make([]bool, cfg.Sessions)
	for i := 0; i < n; i++ {
		cl, err := proxy.Dial(t.svcs[i].V2Addr(), proxy.WithWindow(256))
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		t.clients = append(t.clients, cl)
		if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
	}
	for s := 0; s < cfg.Sessions; s++ {
		node := s % n
		name := fmt.Sprintf("clb-%04d", s)
		t.entry[s] = node
		t.local[s] = ring.Owner(name) == ids[node]
		cl := t.clients[node]
		if _, err := cl.Lane(uint64(s)+1).HelloDurable(ctx, name,
			map[string]any{"MyUId": s%users + 1}); err != nil {
			cleanup()
			return nil, nil, nil, fmt.Errorf("session %s via %s: %w", name, ids[node], err)
		}
	}
	return t, ids, cleanup, nil
}

// clusterShipStats sums forward/ship accounting across the nodes.
func clusterShipStats(t *clusterTarget) (fwdOps, enq, acked, dropped int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, cl := range t.clients {
		resp, err := cl.Do(ctx, &proxy.Request{Op: "cluster.status"})
		if err != nil || resp.Cluster == nil {
			continue
		}
		fwdOps += resp.Cluster.ForwardedOps
		enq += resp.Cluster.ShipEnqueued
		acked += resp.Cluster.ShipAcked
		dropped += resp.Cluster.ShipDropped
	}
	return
}

// clusterSearch locates one node count's aggregate knee: exponential
// ramp then binary search, the same pass/fail judgment as -saturate
// (runStep), against the live cluster.
func clusterSearch(n int, cfg clusterBenchConfig, progress func(string)) (clusterRow, error) {
	t, _, cleanup, err := newClusterTarget(n, cfg)
	if err != nil {
		return clusterRow{}, fmt.Errorf("cluster %d: setup: %w", n, err)
	}
	defer cleanup()

	row := clusterRow{Nodes: n, Sessions: cfg.Sessions, SLOMicros: cfg.SLO.Microseconds()}
	for _, l := range t.local {
		if l {
			row.LocalSessions++
		} else {
			row.ForwardedSessions++
		}
	}

	st := &satTarget{name: fmt.Sprintf("cluster%d", n), sessions: cfg.Sessions, target: t}
	sat := satConfig{SLO: cfg.SLO, Step: cfg.Step}

	// Unrecorded warmup: first touches pay policy compilation, peer
	// dials, and WAL segment creation that belong to setup.
	if warm, err := loadgen.NewSchedule(1000, cfg.StartQPS/2, cfg.Sessions, 0); err == nil {
		if _, err := loadgen.Run(context.Background(), loadgen.Config{
			Target: t, Schedule: warm, Workers: 128,
		}); err != nil {
			return clusterRow{}, fmt.Errorf("cluster %d: warmup: %w", n, err)
		}
	}
	t.opSplit()

	deadline := time.Now().Add(cfg.Budget)
	var (
		lo, hi    float64
		knee      *satStep
		kneeLocal float64 // local share of the knee step's ops
		q         = cfg.StartQPS
	)
search:
	for step := 0; ; step++ {
		ss, err := runStep(st, sat, q, step)
		if err != nil {
			return clusterRow{}, fmt.Errorf("cluster %d @%.0f qps: %w", n, q, err)
		}
		local, fwd := t.opSplit()
		row.Steps = append(row.Steps, ss)
		if progress != nil {
			status := "FAIL " + ss.Fail
			if ss.Pass {
				status = "pass"
			}
			progress(fmt.Sprintf("  %-10s %8.0f qps  p99=%6dµs  achieved=%7.0f/s  local/fwd=%d/%d  %s",
				st.name, q, ss.P99Micros, ss.AchievedQPS, local, fwd, status))
		}
		if ss.Pass {
			lo = q
			knee = &row.Steps[len(row.Steps)-1]
			if local+fwd > 0 {
				kneeLocal = float64(local) / float64(local+fwd)
			}
		} else if hi == 0 || q < hi {
			hi = q
		}
		if time.Now().After(deadline) {
			break
		}
		switch {
		case hi == 0:
			q = lo * 2
		case lo == 0:
			q = hi / 2
			if q < 25 {
				break search
			}
		case hi/lo <= 1.10:
			break search
		default:
			q = (lo + hi) / 2
		}
	}
	if knee != nil {
		row.KneeQPS = knee.OfferedQPS
		row.KneeP99Micros = knee.P99Micros
		row.LocalQPS = knee.OfferedQPS * kneeLocal
		row.ForwardedQPS = knee.OfferedQPS * (1 - kneeLocal)
	}
	row.ForwardedOps, row.ShipEnqueued, row.ShipAcked, row.ShipDropped = clusterShipStats(t)
	if n > 1 && row.ForwardedOps == 0 {
		return clusterRow{}, fmt.Errorf("cluster %d: nodes report zero forwarded ops — the sweep never exercised routing", n)
	}
	return row, nil
}

// runClusterBench sweeps the configured node counts.
func runClusterBench(cfg clusterBenchConfig, progress func(string)) ([]clusterRow, error) {
	var rows []clusterRow
	for _, n := range cfg.Nodes {
		row, err := clusterSearch(n, cfg, progress)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// printClusterScaling summarizes aggregate scaling vs the single-node
// row — the acceptance metric for cluster mode, honest about the
// machine it ran on.
func printClusterScaling(rows []clusterRow) {
	var base float64
	for _, r := range rows {
		if r.Nodes == 1 {
			base = r.KneeQPS
		}
	}
	if base <= 0 {
		return
	}
	for _, r := range rows {
		if r.Nodes == 1 || r.KneeQPS <= 0 {
			continue
		}
		fmt.Printf("acbench: cluster scaling %d nodes: %.0f qps aggregate vs %.0f single-node (%.2fx)\n",
			r.Nodes, r.KneeQPS, base, r.KneeQPS/base)
	}
}

func printCluster(cfg clusterBenchConfig) error {
	fmt.Printf("Cluster knee sweep: %d durable sessions spread over N in-process nodes, SLO p99 ≤ %s, budget %s per size\n",
		cfg.Sessions, cfg.SLO, cfg.Budget)
	fmt.Printf("(session→node placement is the consistent-hash ring; a session entering a non-owner node pays the forwarding hop)\n\n")
	rows, err := runClusterBench(cfg, func(s string) { fmt.Println(s) })
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("%-7s %10s %10s %10s %10s %12s %12s %10s\n",
		"nodes", "sessions", "local", "forwarded", "knee qps", "local qps", "fwd qps", "knee p99")
	for _, r := range rows {
		fmt.Printf("%-7d %10d %10d %10d %10.0f %12.0f %12.0f %8dµs\n",
			r.Nodes, r.Sessions, r.LocalSessions, r.ForwardedSessions,
			r.KneeQPS, r.LocalQPS, r.ForwardedQPS, r.KneeP99Micros)
	}
	fmt.Println()
	printClusterScaling(rows)
	return nil
}
