// Command acproxy starts the enforcement proxy for one of the bundled
// model applications, seeding the in-memory database and vetting every
// query against the app's policy (§2.2).
//
// Usage:
//
//	acproxy -app calendar -addr 127.0.0.1:7070 -size 50 -mode enforce \
//	        -max-conns 1024 -read-timeout 5m -cache-size 8192 -max-inflight 64 \
//	        -metrics 127.0.0.1:7071 -pprof -slowlog 50ms
//
// Clients speak the line protocol of internal/proxy; see
// examples/calendar for a driver. With -pg-addr the same enforcement
// core additionally serves the Postgres wire protocol (v3), so psql
// and stock Postgres drivers connect directly (session attributes via
// attr.* startup parameters; DESIGN.md §13).
//
// Observability:
//
//   - -metrics ADDR serves the live obsv registry as JSON over HTTP
//     at /metrics: per-stage pipeline counters and latencies, cache
//     tier hit counts, proxy query percentiles, engine scan timings.
//   - -pprof exposes net/http/pprof profiling endpoints on the same
//     HTTP server (or 127.0.0.1:6060 when -metrics is unset).
//   - -slowlog D emits one structured JSON line for every query that
//     takes at least D, with the verdict, the cache tier that
//     answered, and the per-stage breakdown (DESIGN.md §9).
//
// Durability:
//
//   - -wal-dir DIR persists every named session's query history to a
//     write-ahead log under DIR and restores it on restart, so
//     compliance decisions survive a crash (DESIGN.md §11). The log
//     opens, and recovery replays, at startup, before the first
//     connection.
//   - -fsync always|interval|off selects the durability/latency
//     trade-off; -fsync-interval tunes the interval timer.
//   - -checkpoint-every N checkpoints and compacts the log after N
//     appended records.
//   - -window N bounds every session trace — durable or not — to its
//     last N entries; it is the only window setting.
//
// Policy lifecycle:
//
//   - -shadow-policy FILE stages a candidate policy (JSON: view name
//     -> SQL) at startup; every decision then dual-decides under the
//     active and candidate policies and divergences stream as diff
//     records. Conclude the trial with the acpolicy CLI (stage, diff,
//     promote, rollback against a running proxy; DESIGN.md §14).
//
// On SIGINT/SIGTERM the proxy drains in-flight connections, flushes
// and checkpoints the WAL (when enabled), and prints extended
// statistics: decision and fact-cache hit rates plus latency
// percentiles over the recent window. A second signal during the
// drain force-exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	beyond "repro"
	"repro/internal/buildinfo"
	"repro/internal/durable"
)

func main() {
	app := flag.String("app", "calendar", "fixture: calendar|hospital|employees|forum")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	pgAddr := flag.String("pg-addr", "", "also serve the Postgres wire protocol (v3) on this address (empty disables)")
	size := flag.Int("size", 50, "seed rows per main table")
	mode := flag.String("mode", "enforce", "enforce|log-only|off")
	maxConns := flag.Int("max-conns", 0, "simultaneous connection limit over all listeners (0 = default, <0 = unlimited)")
	readTimeout := flag.Duration("read-timeout", 10*time.Minute, "per-connection idle deadline, both directions, on all listeners (0 disables)")
	cacheSize := flag.Int("cache-size", 0, "decision-template cache bound (0 = default)")
	maxInFlight := flag.Int("max-inflight", 0, "per-connection pipelined window, protocol v2 (0 = default)")
	metricsAddr := flag.String("metrics", "", "serve /metrics JSON over HTTP on this address (empty disables)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof (on -metrics address, or 127.0.0.1:6060)")
	slowLog := flag.Duration("slowlog", 0, "log queries at or over this duration as structured JSON (0 disables)")
	walDir := flag.String("wal-dir", "", "persist session histories to a WAL under this directory (empty disables durability)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always|interval|off")
	fsyncInterval := flag.Duration("fsync-interval", durable.DefaultFsyncInterval, "fsync timer period under -fsync interval")
	ckptEvery := flag.Int("checkpoint-every", 10000, "checkpoint + compact the WAL after this many appended records (0 disables auto-checkpoints)")
	window := flag.Int("window", 0, "bound each session trace to its last N entries (0 = unbounded)")
	shadowPolicy := flag.String("shadow-policy", "", "stage a candidate policy from this JSON file (view name -> SQL) for shadow dual-decide")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("acproxy"))
		return
	}

	f, err := beyond.FixtureByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	var m beyond.ProxyMode
	switch *mode {
	case "enforce":
		m = beyond.Enforce
	case "log-only":
		m = beyond.LogOnly
	case "off":
		m = beyond.Off
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	db := f.MustNewDB(*size)
	chk := beyond.NewChecker(f.Policy(), beyond.WithCacheSize(*cacheSize))
	opts := []beyond.ProxyOption{
		beyond.WithMaxConns(*maxConns),
		beyond.WithReadTimeout(*readTimeout),
		beyond.WithMaxInFlight(*maxInFlight),
		beyond.WithSlowLog(*slowLog),
		beyond.WithHistoryWindow(*window),
	}
	if *walDir != "" {
		pol, err := durable.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, beyond.WithDurability(*walDir,
			beyond.WithFsync(pol),
			beyond.WithFsyncInterval(*fsyncInterval),
			beyond.WithCheckpointEvery(*ckptEvery)))
	}
	sopts := []beyond.ServeOption{beyond.WithV2Listener(*addr, opts...)}
	if *pgAddr != "" {
		sopts = append(sopts, beyond.WithPgListener(*pgAddr))
	}
	if *shadowPolicy != "" {
		views, err := readPolicyFile(*shadowPolicy)
		if err != nil {
			log.Fatalf("acproxy: -shadow-policy: %v", err)
		}
		sopts = append(sopts, beyond.WithShadowPolicy(views))
	}
	svc, err := beyond.Serve(db, chk, m, sopts...)
	if err != nil {
		log.Fatal(err)
	}
	srv := svc.Proxy()
	fmt.Printf("acproxy: %s app, policy %d views, mode %s, listening on %s\n",
		f.Name, len(f.Policy().Views), m, svc.V2Addr())
	if *pgAddr != "" {
		fmt.Printf("acproxy: Postgres wire protocol on %s (session attrs via attr.* startup params)\n",
			svc.PgAddr())
	}
	if *shadowPolicy != "" {
		fmt.Printf("acproxy: shadow candidate staged from %s; every decision dual-decides (acpolicy diff/promote/rollback to conclude)\n",
			*shadowPolicy)
	}
	// The WAL opened, and recovery replayed, in Serve; the drain below
	// reads its totals from the same manager after Close.
	wal := srv.Durable()
	if wal != nil {
		fmt.Printf("acproxy: WAL at %s (fsync %s), recovered %d session(s) / %d entr(ies)\n",
			*walDir, *fsync, wal.RecoveredSessionCount(), wal.RecoveredEntryCount())
	}

	if err := startHTTP(srv, *metricsAddr, *pprofOn); err != nil {
		log.Fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *walDir != "" {
		fmt.Println("\nacproxy: draining connections and flushing WAL...")
	} else {
		fmt.Println("\nacproxy: draining connections...")
	}
	// A second signal during the drain force-exits: an operator who
	// hits ^C twice means it.
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "acproxy: forced exit before drain completed")
		os.Exit(1)
	}()
	if err := svc.Close(); err != nil {
		log.Printf("acproxy: close: %v", err)
	}
	if wal != nil {
		ws := wal.Stats()
		fmt.Printf("acproxy: WAL: appends=%d batches=%d fsyncs=%d bytes=%d checkpoints=%d compacted=%d\n",
			ws.Appends, ws.Batches, ws.Fsyncs, ws.AppendedBytes, ws.Checkpoints, ws.CompactedSegments)
	}

	st := srv.StatsSnapshot()
	fmt.Printf("acproxy: queries=%d decisions=%d allowed=%d blocked=%d violations=%d\n",
		st.Queries, st.Decisions, st.Allowed, st.Blocked, st.Violations)
	fmt.Printf("acproxy: decision cache: hits=%d (%.1f%%), %d templates resident\n",
		st.CacheHits, 100*st.CacheHitRate, st.CacheEntries)
	fmt.Printf("acproxy: fact cache: reused=%d translated=%d (%.1f%% hit rate)\n",
		st.FactEntriesReused, st.FactEntriesTranslated, 100*st.FactCacheHitRate)
	fmt.Printf("acproxy: latency: p50=%dµs p90=%dµs p99=%dµs mean=%.0fµs over %d queries\n",
		st.LatencyP50Micros, st.LatencyP90Micros, st.LatencyP99Micros,
		st.LatencyMeanMicros, st.LatencySamples)
	fmt.Printf("acproxy: connections: total=%d rejected=%d canceled-requests=%d\n", st.TotalConns, st.RejectedConns, st.CanceledReqs)
}

// readPolicyFile loads a candidate policy file: one JSON object
// mapping view names to parameterized SQL.
func readPolicyFile(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var views map[string]string
	if err := json.Unmarshal(b, &views); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(views) == 0 {
		return nil, fmt.Errorf("%s: no views", path)
	}
	return views, nil
}

// startHTTP stands up the observability HTTP server: /metrics (the
// obsv registry as JSON) when metricsAddr is set, pprof endpoints when
// requested. Both share one server; with -pprof but no -metrics the
// default profiling address is 127.0.0.1:6060.
func startHTTP(srv *beyond.ProxyServer, metricsAddr string, pprofOn bool) error {
	if metricsAddr == "" && !pprofOn {
		return nil
	}
	httpAddr := metricsAddr
	if httpAddr == "" {
		httpAddr = "127.0.0.1:6060"
	}
	mux := http.NewServeMux()
	if metricsAddr != "" {
		reg := srv.MetricsRegistry()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				log.Printf("acproxy: metrics: %v", err)
			}
		})
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{Addr: httpAddr, Handler: mux}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("acproxy: http: %v", err)
		}
	}()
	what := ""
	if metricsAddr != "" {
		what = "metrics at /metrics"
	}
	if pprofOn {
		if what != "" {
			what += ", "
		}
		what += "pprof at /debug/pprof/"
	}
	fmt.Printf("acproxy: serving %s on http://%s\n", what, httpAddr)
	return nil
}
