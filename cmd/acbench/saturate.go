package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	beyond "repro"
	_ "repro/driver"
	"repro/internal/apps"
	"repro/internal/checker"
	"repro/internal/loadgen"
	"repro/internal/profparse"
	"repro/internal/proxy"
)

// The saturation harness answers "where is the serving ceiling?" per
// ingress: a stepped open-loop ramp binary-searches the KNEE — the
// highest offered QPS whose p99 stays under the SLO with zero errors
// and no late-generator disqualification (a step where the generator
// itself fell behind schedule proves nothing about the server and
// fails the step). Every step runs under an in-process CPU profile;
// the knee step's top flat functions name the limiting resource
// without shelling out to `go tool pprof`.
//
// The search reuses one live server and one set of warmed connections
// per ingress, so successive steps measure load response, not setup.

// satMaxLatenessMicros disqualifies a step whose generator fell more
// than this far behind its own schedule: beyond it, "offered QPS" is
// fiction and the step can neither pass nor locate the knee. Same
// bound the openloop diff gate uses for credibility.
const satMaxLatenessMicros = 50_000

// satConfig parameterizes one knee search.
type satConfig struct {
	Ingresses []string      // subset of v2, driver, pg
	SLO       time.Duration // p99 budget a passing step must meet
	Budget    time.Duration // wall-clock bound per ingress search
	Step      time.Duration // target duration of one load step
	StartQPS  float64
}

func defaultSatConfig() satConfig {
	return satConfig{
		Ingresses: []string{"v2", "driver", "pg"},
		SLO:       5 * time.Millisecond,
		Budget:    45 * time.Second,
		Step:      4 * time.Second,
		StartQPS:  500,
	}
}

// satFn is one function's share of a step's CPU profile.
type satFn struct {
	Name    string  `json:"name"`
	Percent float64 `json:"percent"`
}

// satStep is one measured load step in the ramp.
type satStep struct {
	OfferedQPS        float64 `json:"offeredQPS"`
	AchievedQPS       float64 `json:"achievedQPS"`
	Ops               int     `json:"ops"`
	Errors            int     `json:"errors"`
	P50Micros         int64   `json:"p50Micros"`
	P99Micros         int64   `json:"p99Micros"`
	MaxMicros         int64   `json:"maxMicros"`
	MaxLatenessMicros int64   `json:"maxLatenessMicros"`
	Pass              bool    `json:"pass"`
	// Fail names the first criterion the step missed ("" when passing):
	// "p99>slo", "errors", or "generator-late".
	Fail string  `json:"fail,omitempty"`
	Top  []satFn `json:"top,omitempty"`
}

// satRow is one (ingress, slo) knee result for BENCH_9.json.
type satRow struct {
	Ingress       string    `json:"ingress"`
	SLOMicros     int64     `json:"sloMicros"`
	KneeQPS       float64   `json:"kneeQPS"`
	KneeP99Micros int64     `json:"kneeP99Micros"`
	Steps         []satStep `json:"steps"`
	// Top is the knee step's heaviest flat CPU functions — the limiting
	// resource at the highest sustainable load.
	Top []satFn `json:"top,omitempty"`
}

// satTarget is one live ingress stack the search steps against.
type satTarget struct {
	name     string
	sessions int
	target   loadgen.Target
	close    func()
}

// satUsers is the principal population (matches the openloop table);
// satSessions is the session/connection count per ingress — small on
// purpose: the knee search measures the serving path, and ROADMAP
// notes the 1M-lane scale is setup- and GC-noise-dominated on small
// containers.
const (
	satUsers    = 64
	satSessions = 128
)

// newSatTarget builds the live stack for one ingress.
func newSatTarget(ingress string) (*satTarget, error) {
	f := apps.Calendar()
	db := f.MustNewDB(satUsers)
	chk := checker.New(f.Policy())
	switch ingress {
	case "v2":
		return newSatV2(db, chk)
	case "driver":
		return newSatDriver(db, chk)
	case "pg":
		return newSatPg(db, chk)
	}
	return nil, fmt.Errorf("unknown saturate ingress %q (want v2, driver, or pg)", ingress)
}

func newSatV2(db *beyond.DB, chk *beyond.Checker) (*satTarget, error) {
	ctx := context.Background()
	srv := proxy.NewServer(db, chk, proxy.Enforce)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl, err := proxy.Dial(addr, proxy.WithWindow(256))
	if err != nil {
		srv.Close()
		return nil, err
	}
	closeAll := func() { cl.Close(); srv.Close() }
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		closeAll()
		return nil, err
	}
	if err := loadgen.SetupSessions(ctx, cl, satSessions, func(i int) map[string]any {
		return map[string]any{"MyUId": i%satUsers + 1}
	}); err != nil {
		closeAll()
		return nil, err
	}
	return &satTarget{
		name:     "v2",
		sessions: satSessions,
		target: &loadgen.ProxyTarget{
			Client: cl,
			Query: func(op loadgen.Op) (string, []any) {
				return "SELECT EId FROM Attendance WHERE UId = ?", []any{op.Session%satUsers + 1}
			},
		},
		close: closeAll,
	}, nil
}

// newSatDriver drives the same core through database/sql on the
// repro/driver: the schedule's sessions are pooled driver connections,
// all bound to one principal (the pool hands out whichever connection
// is free, so per-session principals would be a lie here).
func newSatDriver(db *beyond.DB, chk *beyond.Checker) (*satTarget, error) {
	srv := proxy.NewServer(db, chk, proxy.Enforce)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	const conns = 64
	pool, err := sql.Open("beyond", addr+"?MyUId=1")
	if err != nil {
		srv.Close()
		return nil, err
	}
	pool.SetMaxOpenConns(conns)
	pool.SetMaxIdleConns(conns)
	if err := pool.Ping(); err != nil {
		pool.Close()
		srv.Close()
		return nil, err
	}
	return &satTarget{
		name:     "driver",
		sessions: conns,
		target: loadgen.TargetFunc(func(ctx context.Context, op loadgen.Op) error {
			rows, err := pool.QueryContext(ctx, "SELECT EId FROM Attendance WHERE UId = 1")
			if err != nil {
				return err
			}
			for rows.Next() {
			}
			return rows.Close()
		}),
		close: func() { pool.Close(); srv.Close() },
	}, nil
}

func newSatPg(db *beyond.DB, chk *beyond.Checker) (*satTarget, error) {
	svc, err := beyond.Serve(db, chk, beyond.Enforce,
		beyond.WithPgListener("127.0.0.1:0"),
		beyond.WithPgMaxConns(satSessions+8))
	if err != nil {
		return nil, err
	}
	pool := &pgPoolTarget{conns: make([]*pgLoadConn, satSessions)}
	closeAll := func() { pool.close(); svc.Close() }
	for i := 0; i < satSessions; i++ {
		uid := i%satUsers + 1
		conn, err := dialPgLoad(svc.PgAddr(), uid,
			fmt.Sprintf("SELECT EId FROM Attendance WHERE UId = %d", uid))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("pg conn %d: %w", i, err)
		}
		pool.conns[i] = conn
	}
	return &satTarget{name: "pg", sessions: satSessions, target: pool, close: closeAll}, nil
}

// satProfileSink, when non-"", makes each step also dump its raw CPU
// profile to <sink>.<ingress>.<qps>qps.pprof for offline
// `go tool pprof` (the -cpuprofile flag in saturate mode).
var satProfileSink string

// runStep measures one offered-QPS step against a live target: a fresh
// Poisson schedule sized to roughly cfg.Step of traffic, profiled
// in-process, judged against the SLO.
func runStep(t *satTarget, cfg satConfig, qps float64, stepIdx int) (satStep, error) {
	ops := int(qps * cfg.Step.Seconds())
	if ops < 200 {
		ops = 200
	}
	if ops > 400_000 {
		ops = 400_000
	}
	// Seed varies by step so successive steps do not replay identical
	// arrival patterns, but a given (ingress, step index) is
	// reproducible run to run.
	sched, err := loadgen.NewSchedule(ops, qps, t.sessions, int64(stepIdx)+1)
	if err != nil {
		return satStep{}, err
	}
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:   t.target,
		Schedule: sched,
		Workers:  128,
		Warmup:   ops / 20,
	})
	if profiling {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return satStep{}, err
	}
	st := satStep{
		OfferedQPS:        qps,
		AchievedQPS:       res.AchievedQPS,
		Ops:               res.Ops,
		Errors:            res.Errors,
		P50Micros:         res.Latency.Quantile(0.50),
		P99Micros:         res.Latency.Quantile(0.99),
		MaxMicros:         res.Latency.Max(),
		MaxLatenessMicros: res.MaxLateness.Microseconds(),
	}
	switch {
	case st.Errors > 0:
		st.Fail = "errors"
	case st.MaxLatenessMicros > satMaxLatenessMicros:
		st.Fail = "generator-late"
	case st.P99Micros > cfg.SLO.Microseconds():
		st.Fail = "p99>slo"
	default:
		st.Pass = true
	}
	if profiling {
		st.Top = profTop(prof.Bytes())
		if satProfileSink != "" {
			name := fmt.Sprintf("%s.%s.%.0fqps.pprof", satProfileSink, t.name, qps)
			if werr := os.WriteFile(name, prof.Bytes(), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "saturate: write %s: %v\n", name, werr)
			}
		}
	}
	return st, nil
}

// profTop reduces a raw CPU profile to its top-5 flat functions with
// their share of total profiled time.
func profTop(data []byte) []satFn {
	entries, err := profparse.Parse(data)
	if err != nil || len(entries) == 0 {
		return nil
	}
	var total int64
	for _, e := range entries {
		total += e.Flat
	}
	if total == 0 {
		return nil
	}
	if len(entries) > 5 {
		entries = entries[:5]
	}
	out := make([]satFn, 0, len(entries))
	for _, e := range entries {
		out = append(out, satFn{Name: e.Name, Percent: 100 * float64(e.Flat) / float64(total)})
	}
	return out
}

// satSearch locates the knee for one ingress: exponential
// ramp from StartQPS until a step fails, then binary search between
// the bracketing pass/fail until the bracket is within 10% or the
// wall-clock budget runs out. The knee is the highest passing step.
func satSearch(ingress string, cfg satConfig, progress func(string)) (satRow, error) {
	t, err := newSatTarget(ingress)
	if err != nil {
		return satRow{}, fmt.Errorf("saturate %s: setup: %w", ingress, err)
	}
	defer t.close()

	// One unrecorded warmup pass at a modest rate: the first requests on
	// a fresh stack pay policy compilation, cache fills, and allocator
	// growth that belong to setup, not to any load step — without this
	// the first recorded step's p99 measures cold start and the ramp
	// brackets the wrong knee.
	if warm, err := loadgen.NewSchedule(1000, cfg.StartQPS/2, t.sessions, 0); err == nil {
		if _, err := loadgen.Run(context.Background(), loadgen.Config{
			Target: t.target, Schedule: warm, Workers: 128,
		}); err != nil {
			return satRow{}, fmt.Errorf("saturate %s: warmup: %w", ingress, err)
		}
	}

	row := satRow{Ingress: ingress, SLOMicros: cfg.SLO.Microseconds()}
	deadline := time.Now().Add(cfg.Budget)
	var (
		lo, hi float64 // highest pass, lowest fail (0 = none yet)
		knee   *satStep
		q      = cfg.StartQPS
	)
search:
	for step := 0; ; step++ {
		st, err := runStep(t, cfg, q, step)
		if err != nil {
			return satRow{}, fmt.Errorf("saturate %s @%.0f qps: %w", ingress, q, err)
		}
		row.Steps = append(row.Steps, st)
		if progress != nil {
			status := "FAIL " + st.Fail
			if st.Pass {
				status = "pass"
			}
			progress(fmt.Sprintf("  %-14s %8.0f qps  p99=%6dµs  achieved=%7.0f/s  %s",
				ingress, q, st.P99Micros, st.AchievedQPS, status))
		}
		if st.Pass {
			lo = q
			knee = &row.Steps[len(row.Steps)-1]
		} else if hi == 0 || q < hi {
			hi = q
		}
		if time.Now().After(deadline) {
			break
		}
		switch {
		case hi == 0:
			q = lo * 2 // still ramping
		case lo == 0:
			q = hi / 2 // even the start failed: ramp down
			if q < 25 {
				// The floor: below this the target is unusable; report
				// what we saw rather than probing forever.
				break search
			}
		case hi/lo <= 1.10:
			// Bracket tight enough; the knee is located.
			break search
		default:
			q = (lo + hi) / 2
		}
	}
	if knee != nil {
		row.KneeQPS = knee.OfferedQPS
		row.KneeP99Micros = knee.P99Micros
		row.Top = knee.Top
	}
	return row, nil
}

// runSaturate runs the knee search over the configured ingresses,
// returning one row per ingress.
func runSaturate(cfg satConfig, progress func(string)) ([]satRow, error) {
	var rows []satRow
	for _, ing := range cfg.Ingresses {
		row, err := satSearch(ing, cfg, progress)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printSaturate(cfg satConfig) error {
	fmt.Printf("Saturation knee search: SLO p99 ≤ %s, step ≈ %s, budget %s per ingress\n",
		cfg.SLO, cfg.Step, cfg.Budget)
	fmt.Printf("(pass = p99 under SLO, zero errors, generator never >%dms behind schedule)\n\n",
		satMaxLatenessMicros/1000)
	rows, err := runSaturate(cfg, func(s string) { fmt.Println(s) })
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("%-14s %12s %12s  limiting resource (flat CPU)\n", "ingress", "knee qps", "knee p99")
	for _, r := range rows {
		top := "-"
		if len(r.Top) > 0 {
			top = fmt.Sprintf("%s (%.0f%%)", r.Top[0].Name, r.Top[0].Percent)
		}
		fmt.Printf("%-14s %12.0f %10dµs  %s\n", r.Ingress, r.KneeQPS, r.KneeP99Micros, top)
	}
	return nil
}
