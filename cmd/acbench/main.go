// Command acbench runs the full evaluation suite E1–E8 (DESIGN.md) and
// prints every table. For calibrated latency numbers, prefer the
// testing.B benchmarks: go test -bench=. -benchmem .
//
// Usage:
//
//	acbench            # run everything
//	acbench -only E1   # one experiment
//	acbench -hotpath   # enforcement hot-path scaling table only
//	acbench -pipeline  # protocol-v2 pipelining throughput table only
//	acbench -durable   # WAL fsync-policy/group-commit ablation only
//	acbench -ingress   # decide throughput per ingress surface (v2/driver/pgwire)
//	acbench -saturate  # knee search: highest QPS whose p99 holds the SLO, per ingress
//	acbench -cluster   # aggregate knee over 1/2/4/8 in-process cluster nodes
//	acbench -json BENCH_5.json   # machine-readable benchmark document
//
// -hotpath measures the per-check cost against growing session
// histories, whose facts the trace derives once per entry, and the
// throughput of parallel principals hitting the sharded decision
// cache — the scaling story behind the proxy's production posture.
//
// -pipeline measures end-to-end proxy throughput for a mixed
// 8-session workload over one connection as the client's in-flight
// window grows: window 1 is the serial (v1-equivalent) baseline, and
// larger windows show what protocol v2's pipelining buys.
//
// -durable measures WAL append throughput for concurrent sessions
// under each fsync policy: fsync-per-append (the naive baseline),
// group commit (one fsync per coalesced batch), interval, and off.
//
// -saturate ramps offered load per ingress and binary-searches the
// KNEE: the highest QPS whose p99 stays under -sat-slo with zero
// errors and no late-generator disqualification. Each step runs under
// an in-process CPU profile whose top flat functions name the
// limiting resource.
//
// -cluster stands up N clustered Serve stacks in-process (durable WAL,
// live shipping, consistent-hash routing), spreads named durable
// sessions over all N entry points — so a ring-determined share pays
// the forwarding hop — and knee-searches the aggregate QPS that holds
// the p99 SLO at each cluster size. See DESIGN.md §16.
//
// -cpuprofile/-memprofile write standard pprof profiles covering the
// whole run (any mode). In -saturate mode the CPU profiler belongs to
// the per-step capture, so -cpuprofile instead dumps one profile per
// load step (<path>.<ingress>.<qps>qps.pprof) for offline
// `go tool pprof`.
//
// -json FILE runs the hot-path, parallel-principal, pipelining,
// cold-path, durability, saturation, and metrics-overhead benchmarks
// and writes one JSON document to FILE, so successive checked-in
// BENCH_*.json files form a performance trajectory for the repo.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/buildinfo"
	"repro/internal/checker"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/proxy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (E1..E8)")
	hotpath := flag.Bool("hotpath", false, "run only the enforcement hot-path scaling table")
	pipeline := flag.Bool("pipeline", false, "run only the protocol-v2 pipelining throughput table")
	coldpath := flag.Bool("coldpath", false, "run only the cold-path policy-size sweep (linear scan vs compiled search)")
	durableBench := flag.Bool("durable", false, "run only the WAL append-throughput ablation (fsync policies vs group commit)")
	openloop := flag.Bool("openloop", false, "run only the open-loop (coordinated-omission-safe) proxy load table")
	ingress := flag.Bool("ingress", false, "run only the ingress-surface comparison (v2 vs database/sql driver vs pgwire)")
	saturate := flag.Bool("saturate", false, "run only the saturation knee search (highest QPS holding the p99 SLO per ingress)")
	clusterBench := flag.Bool("cluster", false, "run only the cluster knee sweep (aggregate QPS over 1/2/4/8 in-process nodes with mixed local/forwarded sessions)")
	clusterNodes := flag.String("cluster-nodes", "1,2,4,8", "with -cluster/-json: comma-separated cluster sizes to sweep")
	clusterSessions := flag.Int("cluster-sessions", 192, "with -cluster/-json: durable sessions spread across the cluster")
	clusterBudget := flag.Duration("cluster-budget", 25*time.Second, "with -cluster/-json: wall-clock budget per cluster size")
	satIngress := flag.String("sat-ingress", "v2,driver,pg", "with -saturate: comma-separated ingresses to search")
	satSLO := flag.Duration("sat-slo", 5*time.Millisecond, "with -saturate/-json: p99 SLO a passing step must hold")
	satBudget := flag.Duration("sat-budget", 45*time.Second, "with -saturate/-json: wall-clock budget per ingress search")
	satStep := flag.Duration("sat-step", 4*time.Second, "with -saturate/-json: target duration of one load step")
	satStart := flag.Float64("sat-start", 500, "with -saturate: starting offered QPS for the ramp")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (in -saturate mode: one per load step, <path>.<ingress>.<qps>qps.pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	olIngress := flag.String("openloop-ingress", "v2", "with -openloop: ingress surface to load, v2 (lanes) or pg (one wire connection per session)")
	olSessions := flag.String("openloop-sessions", "", "with -openloop/-json: comma-separated session scales (default 10000,100000,1000000; pg default 64,256,1024)")
	olOps := flag.Int("openloop-ops", 0, "with -openloop/-json: operations per scale (default 10000)")
	olQPS := flag.Float64("openloop-qps", 0, "with -openloop/-json: offered Poisson arrival rate (default 2000)")
	jsonOut := flag.String("json", "", "write the benchmark document as JSON to this file")
	against := flag.String("against", "", "with -json: compare against a previous benchmark document and fail on an open-loop tail or cluster knee regression")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("acbench"))
		return
	}

	satCfg := defaultSatConfig()
	satCfg.SLO = *satSLO
	satCfg.Budget = *satBudget
	satCfg.Step = *satStep
	satCfg.StartQPS = *satStart
	if *satIngress != "" {
		satCfg.Ingresses = satCfg.Ingresses[:0]
		for _, s := range strings.Split(*satIngress, ",") {
			satCfg.Ingresses = append(satCfg.Ingresses, strings.TrimSpace(s))
		}
	}

	// Profile plumbing (any mode). In -saturate mode the CPU profiler is
	// owned by the per-step capture, so -cpuprofile becomes the per-step
	// dump prefix instead of a whole-run profile.
	if *cpuprofile != "" {
		if *saturate || *jsonOut != "" {
			satProfileSink = *cpuprofile
		} else {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				log.Fatalf("acbench: -cpuprofile: %v", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				log.Fatalf("acbench: -cpuprofile: %v", err)
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("acbench: -memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Printf("acbench: -memprofile: %v", err)
			}
		}()
	}

	olCfg := defaultOpenloopConfig()
	switch *olIngress {
	case "v2":
	case "pg":
		olCfg.Ingress = "pg"
		olCfg.Scales = defaultPgScales()
	default:
		log.Fatalf("acbench: -openloop-ingress must be v2 or pg, got %q", *olIngress)
	}
	if *olSessions != "" {
		olCfg.Scales = olCfg.Scales[:0]
		for _, s := range strings.Split(*olSessions, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				log.Fatalf("acbench: bad -openloop-sessions entry %q", s)
			}
			olCfg.Scales = append(olCfg.Scales, n)
		}
	}
	if *olOps > 0 {
		olCfg.Ops = *olOps
	}
	if *olQPS > 0 {
		olCfg.QPS = *olQPS
	}

	clCfg := defaultClusterBenchConfig()
	clCfg.SLO = *satSLO
	clCfg.Budget = *clusterBudget
	if *clusterSessions > 0 {
		clCfg.Sessions = *clusterSessions
	}
	if *clusterNodes != "" {
		clCfg.Nodes = clCfg.Nodes[:0]
		for _, s := range strings.Split(*clusterNodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				log.Fatalf("acbench: bad -cluster-nodes entry %q", s)
			}
			clCfg.Nodes = append(clCfg.Nodes, n)
		}
	}

	if *jsonOut != "" {
		if err := runJSON(*jsonOut, *against, olCfg, satCfg, clCfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *clusterBench {
		if err := printCluster(clCfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *saturate {
		if err := printSaturate(satCfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *openloop {
		if err := printOpenLoop(olCfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *ingress {
		if err := printIngress(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *hotpath {
		printHotPath()
		return
	}
	if *coldpath {
		if err := printColdPath(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *pipeline {
		if err := printPipeline(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *durableBench {
		if err := printDurable(); err != nil {
			log.Fatal(err)
		}
		return
	}

	tables, err := experiments.RunAll()
	if err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	for _, t := range tables {
		if len(want) > 0 && !want[strings.ToUpper(t.ID)] && !want[strings.ToUpper(strings.TrimSuffix(t.ID, "b"))] {
			continue
		}
		fmt.Println(t)
	}
}

// benchDoc is the -json output: one self-describing document per run,
// checked in as BENCH_<pr>.json so the sequence forms a trajectory.
type benchDoc struct {
	GeneratedAt     string        `json:"generatedAt"`
	GoVersion       string        `json:"goVersion"`
	GoMaxProcs      int           `json:"gomaxprocs"`
	Hotpath         []hotpathRow  `json:"hotpath"`
	Parallel        parallelRow   `json:"parallelPrincipals"`
	Pipeline        []pipelineRow `json:"pipeline"`
	Coldpath        []coldpathRow `json:"coldpath,omitempty"`
	Durable         []durableRow  `json:"durable,omitempty"`
	Openloop        []openloopRow `json:"openloop,omitempty"`
	Ingress         []ingressRow  `json:"ingress,omitempty"`
	Saturation      []satRow      `json:"saturation,omitempty"`
	Cluster         []clusterRow  `json:"cluster,omitempty"`
	ShadowOverhead  shadowRow     `json:"shadowOverhead"`
	MetricsOverhead overheadRow   `json:"metricsOverhead"`
}

type hotpathRow struct {
	History           int     `json:"history"`
	IncrementalMicros float64 `json:"incrementalMicros"`
}

type parallelRow struct {
	Workers      int     `json:"workers"`
	ChecksPerSec float64 `json:"checksPerSec"`
	CacheHits    int     `json:"cacheHits"`
}

type pipelineRow struct {
	Mode    string  `json:"mode"`
	Window  int     `json:"window"`
	ReqPerS float64 `json:"reqPerSec"`
	Speedup float64 `json:"speedupVsWindow1"`
}

type overheadRow struct {
	InstrumentedMicros float64 `json:"instrumentedMicros"`
	NoopMicros         float64 `json:"noopMicros"`
	Ratio              float64 `json:"ratio"`
}

// runJSON assembles the full benchmark document and writes it. When
// against names a previous document, the new open-loop and cluster
// numbers are diffed against it and a regression fails the run (after
// the new document is written, so the numbers are inspectable).
func runJSON(path, against string, olCfg openloopConfig, satCfg satConfig, clCfg clusterBenchConfig) error {
	doc := benchDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	fmt.Println("acbench: hot-path scaling...")
	doc.Hotpath = runHotPath()
	fmt.Println("acbench: parallel principals...")
	doc.Parallel = runParallel()
	fmt.Println("acbench: protocol-v2 pipelining...")
	pl, err := runPipeline()
	if err != nil {
		return err
	}
	doc.Pipeline = pl
	fmt.Println("acbench: cold-path policy-size sweep...")
	cp, err := runColdPath()
	if err != nil {
		return err
	}
	doc.Coldpath = cp
	fmt.Println("acbench: WAL durability ablation...")
	du, err := runDurable()
	if err != nil {
		return err
	}
	doc.Durable = du
	fmt.Println("acbench: open-loop proxy load (v2)...")
	v2Cfg := olCfg
	if v2Cfg.Ingress != "v2" {
		v2Cfg = defaultOpenloopConfig()
	}
	ol, err := runOpenLoop(v2Cfg)
	if err != nil {
		return err
	}
	doc.Openloop = ol
	fmt.Println("acbench: open-loop proxy load (pgwire)...")
	pgCfg := olCfg
	if pgCfg.Ingress != "pg" {
		pgCfg.Ingress = "pg"
		pgCfg.Scales = defaultPgScales()
	}
	pg, err := runOpenLoop(pgCfg)
	if err != nil {
		return err
	}
	doc.Openloop = append(doc.Openloop, pg...)
	fmt.Println("acbench: ingress surfaces...")
	ing, err := runIngress()
	if err != nil {
		return err
	}
	doc.Ingress = ing
	// Saturation knees per ingress. Settle the heap first: the
	// million-session openloop sweep above leaves the GC pacer with a
	// huge heap goal, and knee steps measured under that inherited
	// pressure read artificially low.
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Println("acbench: saturation knee search...")
	sat, err := runSaturate(satCfg, func(s string) { fmt.Println(s) })
	if err != nil {
		return err
	}
	doc.Saturation = sat
	fmt.Println("acbench: cluster knee sweep...")
	runtime.GC()
	debug.FreeOSMemory()
	cls, err := runClusterBench(clCfg, func(s string) { fmt.Println(s) })
	if err != nil {
		return err
	}
	doc.Cluster = cls
	printClusterScaling(doc.Cluster)
	fmt.Println("acbench: dual-decide shadow overhead...")
	sh, err := runShadowOverhead()
	if err != nil {
		return err
	}
	doc.ShadowOverhead = sh
	fmt.Println("acbench: metrics overhead...")
	doc.MetricsOverhead = runMetricsOverhead()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("acbench: wrote %s\n", path)
	if err := gateShadowOverhead(doc.ShadowOverhead); err != nil {
		return err
	}
	if against != "" {
		return diffAgainst(doc, against)
	}
	return nil
}

// diffAgainst gates on the previous document's open-loop tails and
// cluster knees. Hotpath, pipeline and coldpath rows are informational.
func diffAgainst(doc benchDoc, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench diff: %w", err)
	}
	var prev benchDoc
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("bench diff: %s: %w", path, err)
	}
	if err := diffOpenloop(doc, prev, path); err != nil {
		return err
	}
	return diffCluster(doc, prev, path)
}

// diffCluster gates the cluster sweep against the pinned document,
// keyed by node count: the aggregate knee at each size must hold at
// least half the pinned rate (wall-clock knees on a shared container
// swing; halving means forwarding or shipping broke, not jitter). A
// pinned document without cluster rows makes this run the baseline.
func diffCluster(doc, prev benchDoc, path string) error {
	prevBy := make(map[int]clusterRow, len(prev.Cluster))
	for _, r := range prev.Cluster {
		prevBy[r.Nodes] = r
	}
	n := 0
	for _, r := range doc.Cluster {
		p, ok := prevBy[r.Nodes]
		if !ok || p.KneeQPS <= 0 || r.KneeQPS <= 0 {
			continue
		}
		ratio := r.KneeQPS / p.KneeQPS
		fmt.Printf("bench diff: cluster nodes=%d knee %.0f -> %.0f qps (%.0f%%), p99 %dµs -> %dµs\n",
			r.Nodes, p.KneeQPS, r.KneeQPS, ratio*100, p.KneeP99Micros, r.KneeP99Micros)
		if ratio < 0.5 {
			return fmt.Errorf("bench diff vs %s FAILED: cluster knee at %d nodes fell to %.0f%% of the pinned run (<50%%)", path, r.Nodes, ratio*100)
		}
		n++
	}
	if n == 0 {
		fmt.Printf("bench diff vs %s: no comparable cluster rows (new baseline)\n", path)
	} else {
		fmt.Printf("bench diff vs %s: ok (%d cluster rows within bounds)\n", path, n)
	}
	return nil
}

// diffOpenloop gates the open-loop tail latencies against the pinned
// document, scale by scale within each ingress. Wall-clock tails on a
// shared container are noisy, so the gate is a geomean across scales with 2× headroom — it catches
// a warm path that broke (tails jump integer multiples when pooling or
// the lane scheduler regresses), not scheduler jitter. Rows are keyed
// by (ingress, sessions); a pinned document predating the ingress
// field carries v2 rows with the field absent, which olIngressKey
// normalizes so the v2 gate keeps comparing while pg rows from a newer
// run become a fresh baseline (vacuous pass).
func diffOpenloop(doc, prev benchDoc, path string) error {
	type olKey struct {
		ingress  string
		sessions int
	}
	key := func(r openloopRow) olKey {
		ing := r.Ingress
		if ing == "" {
			ing = "v2"
		}
		return olKey{ing, r.Sessions}
	}
	prevBy := make(map[olKey]openloopRow, len(prev.Openloop))
	for _, r := range prev.Openloop {
		prevBy[key(r)] = r
	}
	// A row whose generator ran severely late is incomparable: lateness
	// means the load harness could not even START ops on schedule (the
	// 1-core box stalled under setup GC or neighbors), so the measured
	// tails are machine backlog, not proxy latency. Such rows are
	// excluded from the geomean — visibly, never silently.
	const maxCredibleLateness = 50_000 // µs
	logSum, n := 0.0, 0
	for _, r := range doc.Openloop {
		p, ok := prevBy[key(r)]
		if !ok || p.P99Micros <= 0 || r.P99Micros <= 0 {
			continue
		}
		if r.MaxLatenessMicros > maxCredibleLateness || p.MaxLatenessMicros > maxCredibleLateness {
			fmt.Printf("bench diff: openloop %s sessions=%d SKIPPED (lateness %dµs prev / %dµs now exceeds %dµs: harness fell behind, tails are backlog not latency)\n",
				key(r).ingress, r.Sessions, p.MaxLatenessMicros, r.MaxLatenessMicros, maxCredibleLateness)
			continue
		}
		// A row that achieved well under its offered rate with a credible
		// generator means Elapsed stretched past the schedule span — a
		// long completion tail (setup GC debt, backlog drain), not a
		// schedule the server kept up with. Flag it explicitly so an
		// under-achieving row is never mistaken for a sustained rate (the
		// BENCH_8 1M-session row hid exactly this; see EXPERIMENTS.md E9).
		if r.AchievedQPS < 0.95*r.OfferedQPS {
			fmt.Printf("bench diff: openloop %s sessions=%d UNDER-ACHIEVED: %.0f/s achieved vs %.0f/s offered (<95%%) — completion tail stretched the run; treat achievedQPS as drain rate, not sustained throughput\n",
				key(r).ingress, r.Sessions, r.AchievedQPS, r.OfferedQPS)
		}
		ratio := float64(r.P99Micros) / float64(p.P99Micros)
		fmt.Printf("bench diff: openloop %s sessions=%d p99 %dµs -> %dµs (%.0f%%), p999 %dµs -> %dµs\n",
			key(r).ingress, r.Sessions, p.P99Micros, r.P99Micros, ratio*100, p.P999Micros, r.P999Micros)
		logSum += math.Log(ratio)
		n++
	}
	if n == 0 {
		fmt.Printf("bench diff vs %s: no comparable openloop rows (new baseline)\n", path)
		return nil
	}
	geo := math.Exp(logSum / float64(n))
	if geo > 2.0 {
		return fmt.Errorf("bench diff vs %s FAILED: openloop p99 geomean rose to %.0f%% of the pinned run (>200%%)", path, geo*100)
	}
	fmt.Printf("bench diff vs %s: ok (openloop p99 geomean %.0f%% of pinned run)\n", path, geo*100)
	return nil
}

// runHotPath measures per-check latencies for long-history sessions.
func runHotPath() []hotpathRow {
	f := apps.Calendar()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	sess := f.Session(1)
	var rows []hotpathRow
	for _, n := range []int{25, 50, 100, 200, 400} {
		inc := timeChecks(f, sel, sess, mkTrace(n))
		rows = append(rows, hotpathRow{History: n, IncrementalMicros: float64(inc.Nanoseconds()) / 1e3})
	}
	return rows
}

func printHotPath() {
	fmt.Println("Hot path: per-check latency vs session history length")
	fmt.Printf("%-10s %15s\n", "history", "incremental")
	for _, r := range runHotPath() {
		fmt.Printf("%-10d %14.1fµs\n", r.History, r.IncrementalMicros)
	}
	fmt.Println()
	p := runParallel()
	fmt.Printf("Parallel principals: %d workers (%.0f checks/sec, cache hits %d)\n",
		p.Workers, p.ChecksPerSec, p.CacheHits)
}

// runParallel measures parallel-principal throughput on a warm
// decision template.
func runParallel() parallelRow {
	f := apps.Calendar()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 5000
	chk := checker.New(f.Policy())
	warm := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ?")
	chk.Check(context.Background(), warm, sqlparser.PositionalArgs(1), f.Session(1), nil)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(uid int64) {
			defer wg.Done()
			s := f.Session(uid)
			args := sqlparser.PositionalArgs(uid)
			for i := 0; i < perWorker; i++ {
				chk.Check(context.Background(), warm, args, s, nil)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := workers * perWorker
	return parallelRow{
		Workers:      workers,
		ChecksPerSec: float64(total) / elapsed.Seconds(),
		CacheHits:    chk.Stats().CacheHits,
	}
}

// runMetricsOverhead compares the default (instrumented) checker to an
// obsv.Disabled build on the hot-path workload: warm trace-dependent
// checks against a 50-entry history. The same comparison gates CI via
// TestMetricsOverheadGuard.
func runMetricsOverhead() overheadRow {
	f := apps.Calendar()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	sess := f.Session(1)
	tr := mkTrace(50)
	build := func(reg *obsv.Registry) *checker.Checker {
		opts := checker.DefaultOptions()
		opts.Metrics = reg
		c := checker.NewWithOptions(f.Policy(), opts)
		c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr) // warm
		return c
	}
	cOn, cOff := build(nil), build(obsv.Disabled())
	const (
		iters  = 50
		trials = 30
	)
	measure := func(c *checker.Checker) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
		}
		return time.Since(start)
	}
	measure(cOn) // warmup
	measure(cOff)
	minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
	for t := 0; t < trials; t++ {
		if t%2 == 0 {
			if d := measure(cOn); d < minOn {
				minOn = d
			}
			if d := measure(cOff); d < minOff {
				minOff = d
			}
		} else {
			if d := measure(cOff); d < minOff {
				minOff = d
			}
			if d := measure(cOn); d < minOn {
				minOn = d
			}
		}
	}
	return overheadRow{
		InstrumentedMicros: float64(minOn.Nanoseconds()) / 1e3 / iters,
		NoopMicros:         float64(minOff.Nanoseconds()) / 1e3 / iters,
		Ratio:              float64(minOn) / float64(minOff),
	}
}

// runPipeline measures proxy throughput over one TCP connection for a
// mixed 8-session workload (each session its own principal, warm
// decision templates) as the client's in-flight window varies. Window
// 1 ping-pongs like protocol v1; wider windows overlap client, wire,
// and server work.
func runPipeline() ([]pipelineRow, error) {
	ctx := context.Background()
	f := apps.Calendar()
	const (
		sessions = 8
		requests = 16000
	)
	// Mixed per-principal read workload, every shape covered by the
	// Calendar policy views so enforcement allows all of it. All three
	// are point lookups: the table isolates per-request protocol and
	// decision overhead, which is what the in-flight window amortizes.
	shapes := []string{
		"SELECT EId FROM Attendance WHERE UId = ?",
		"SELECT Name FROM Users WHERE UId = ?",
		"SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?",
	}

	run := func(mode proxy.Mode, window int) (float64, error) {
		db := f.MustNewDB(sessions)
		chk := checker.New(f.Policy())
		srv := proxy.NewServer(db, chk, mode)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer srv.Close()

		cl, err := proxy.Dial(addr, proxy.WithWindow(window))
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
			return 0, err
		}
		lanes := make([]*proxy.Lane, sessions)
		for i := range lanes {
			lanes[i] = cl.Lane(uint64(i + 1))
			if err := lanes[i].Hello(ctx, map[string]any{"MyUId": i + 1}); err != nil {
				return 0, err
			}
		}

		// Producer pipelines sends; consumer drains responses. The
		// client's window semaphore keeps exactly `window` in flight.
		pend := make(chan *proxy.PendingRows, window)
		errc := make(chan error, 1)
		start := time.Now()
		go func() {
			defer close(pend)
			for i := 0; i < requests; i++ {
				ln := lanes[i%sessions]
				uid := i%sessions + 1
				args := []any{uid}
				if i%len(shapes) == 2 {
					args = append(args, i%5+1) // probe a rotating event
				}
				p, err := ln.QueryAsync(ctx, shapes[i%len(shapes)], args...)
				if err != nil {
					errc <- err
					return
				}
				pend <- p
			}
		}()
		for p := range pend {
			if _, err := p.Wait(ctx); err != nil {
				return 0, err
			}
		}
		select {
		case err := <-errc:
			return 0, err
		default:
		}
		return float64(requests) / time.Since(start).Seconds(), nil
	}

	var rows []pipelineRow
	for _, m := range []struct {
		mode  proxy.Mode
		label string
	}{
		{proxy.Off, "off"},
		{proxy.Enforce, "enforce"},
	} {
		var base float64
		for _, w := range []int{1, 2, 4, 8, 16} {
			// Best of three trials: each trial is a fresh server and
			// connection, so a GC pause or scheduler hiccup in one
			// trial doesn't misstate the steady-state capability.
			var rps float64
			for t := 0; t < 3; t++ {
				r, err := run(m.mode, w)
				if err != nil {
					return nil, err
				}
				if r > rps {
					rps = r
				}
			}
			if w == 1 {
				base = rps
			}
			rows = append(rows, pipelineRow{
				Mode: m.label, Window: w, ReqPerS: rps, Speedup: rps / base,
			})
		}
	}
	return rows, nil
}

func printPipeline() error {
	rows, err := runPipeline()
	if err != nil {
		return err
	}
	fmt.Println("Protocol v2 pipelining: mixed workload, 8 sessions multiplexed over one connection, 16000 requests")
	fmt.Printf("window 1 is the serial v1-equivalent baseline; speedup is vs window 1 in the same mode\n\n")
	labels := map[string]string{
		"off":     "enforcement off (protocol cost only)",
		"enforce": "enforcement on (checker + trace in path)",
	}
	lastMode := ""
	for _, r := range rows {
		if r.Mode != lastMode {
			if lastMode != "" {
				fmt.Println()
			}
			lastMode = r.Mode
			fmt.Printf("mode: %s\n", labels[r.Mode])
			fmt.Printf("%-8s %12s %9s\n", "window", "req/s", "speedup")
		}
		fmt.Printf("%-8d %12.0f %8.2fx\n", r.Window, r.ReqPerS, r.Speedup)
	}
	fmt.Println()
	return nil
}

func mkTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i+2)
		st := sqlparser.MustParseSelect(sql)
		tr.Append(trace.Entry{SQL: sql, Stmt: st, Args: sqlparser.NoArgs,
			Columns: []string{"1"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}}})
	}
	return tr
}

// timeChecks reports the best-of-3 mean per-check latency at each
// history size (the minimum batch mean is the stablest location
// statistic on a shared container — a single batch is at the mercy of
// whatever else the machine is doing during those few milliseconds).
func timeChecks(f *apps.Fixture, sel *sqlparser.SelectStmt, sess map[string]sqlvalue.Value, tr *trace.Trace) time.Duration {
	chk := checker.New(f.Policy())
	chk.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr) // warm
	const iters = 50
	best := time.Duration(1 << 62)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			chk.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
		}
		if d := time.Since(start) / time.Duration(iters); d < best {
			best = d
		}
	}
	return best
}
