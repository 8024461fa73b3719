package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	beyond "repro"
	"repro/driver"
	"repro/internal/checker"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The traced replay: the first replayOps ops of the workload's stream,
// one client, serial, so every count repeats exactly for a seed. It
// runs after all end-to-end numbers are taken, each pass on its own
// fresh instance so every pass sees the same cache and history states:
//
//	whole       HandleInCtx per op                    -> proxy.handle
//	decomposed  parse, decide, bind, engine, append   -> the parts
//	ingress     the same ops over the socket ingress  -> rtt
//	driver      v2_warm only, through database/sql    -> driver.rtt
//
// Spans are recorded from here, around the public calls; spans inside
// the product are a later change.

// Decision tiers as the replay buckets them; "" from the checker is a
// cold decision.
var tierNames = []string{checker.TierFront, checker.TierHistFree, checker.TierTemplate, "cold"}

func tierOf(d checker.Decision) string {
	if d.Tier == "" {
		return "cold"
	}
	return d.Tier
}

type replayResult struct {
	n     int
	whole series // proxy.handle per op, ns

	parts     [numSpanKinds]*hist // per span kind, over the ops that ran it
	partSum   series              // sum of an op's parts, ns
	decompAll series              // wall time of a decomposed op, spans included

	decideByTier map[string]*hist
	tierN        map[string]int64
	decideAllocs float64 // heap objects per decide, sampled
	coldKept     int64
	coldPruned   int64

	appends, appendRows int64
	queries, queryRows  int64

	ingress       series
	ingressRows   int64
	ingressBytes  int64
	allocsPerRtt  float64
	helloUs       float64
	connectUs     float64
	driverRtt     series
	walAppends    int64 // WAL appends over the decomposed pass
	failed        int64
	firstFailures []string
}

// allocSampler reads the runtime's cumulative heap-object count without
// stopping the world.
type allocSampler struct{ s [1]metrics.Sample }

func newAllocSampler() *allocSampler {
	a := &allocSampler{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocSampler) objects() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}

// replayOpsOf draws the stream's first n ops from a fresh instance's
// generator.
func replayOpsOf(in *instance, seed int64, n int) []*op {
	gen := in.newGen(seed, 0, 1)
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = gen.next()
	}
	return ops
}

// tracedReplay runs every pass for one workload.
func tracedReplay(ctx context.Context, env *runEnv, def *workloadDef, seed int64, log *spanLog) (*replayResult, error) {
	n := def.replayOps
	if env.smoke {
		n = max(n/10, 50)
	}
	res := &replayResult{n: n, decideByTier: map[string]*hist{}, tierN: map[string]int64{}}
	for k := range res.parts {
		res.parts[k] = new(hist)
	}
	fails := &failures{}

	// fresh runs one pass on its own instance over the stream's first n ops.
	fresh := func(pass func(in *instance, ops []*op) error) error {
		in, err := def.setup(ctx, env, beyond.Enforce)
		if err != nil {
			return fmt.Errorf("replay set-up: %w", err)
		}
		defer in.close()
		return pass(in, replayOpsOf(in, seed, n))
	}
	passes := []func(in *instance, ops []*op) error{
		func(in *instance, ops []*op) error { // whole
			core, err := newInprocTarget(ctx, in.svc.Proxy(), in.attrs, in.names, def.stmts)
			if err != nil {
				return err
			}
			defer core.close()
			res.whole = replayWhole(ctx, core, ops, log, fails)
			return nil
		},
		func(in *instance, ops []*op) error { return replayDecomposed(ctx, in, ops, res, log, fails) },
	}
	if def.ingress != "" {
		passes = append(passes, func(in *instance, ops []*op) error { return replayIngress(ctx, in, ops, res, log, fails) })
	}
	if def == v2Warm {
		passes = append(passes, func(in *instance, ops []*op) error { return replayDriver(ctx, in, ops, res, log, fails) })
	}
	for _, pass := range passes {
		if err := fresh(pass); err != nil {
			return nil, err
		}
	}
	res.failed, res.firstFailures = fails.n.Load(), fails.first
	return res, nil
}

func replayWhole(ctx context.Context, core *inprocTarget, ops []*op, log *spanLog, fails *failures) series {
	out := make(series, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		got := core.do(ctx, o)
		t1 := time.Now()
		out[i] = int64(t1.Sub(t0))
		log.add(i, spHandle, spNone, t0, t1)
		if why := verify(o, got, true); why != "" {
			fails.add(o, "whole replay: "+why)
		}
	}
	return out
}

// replayDecomposed does by hand what the proxy core does for one
// request (runQuery / finishQuery / handleExec), one public call per
// part, timing each.
func replayDecomposed(ctx context.Context, in *instance, ops []*op, res *replayResult, log *spanLog, fails *failures) error {
	def := in.def
	type session struct {
		attrs map[string]sqlvalue.Value
		tr    *trace.Trace
	}
	newTrace := func(s int) (*trace.Trace, error) {
		if in.names != nil {
			// The WAL-hooked trace of the named session: Append returns
			// when the record is acknowledged.
			tr, _, err := in.svc.Proxy().Durable().Session(in.names[s], beyond.Session(in.attrs[s]))
			return tr, err
		}
		tr := &trace.Trace{}
		if def.window > 0 {
			tr.SetWindow(def.window)
		}
		return tr, nil
	}
	sessions := make([]session, len(in.attrs))
	for s := range sessions {
		tr, err := newTrace(s)
		if err != nil {
			return err
		}
		sessions[s] = session{attrs: beyond.Session(in.attrs[s]), tr: tr}
	}
	for _, t := range tierNames {
		res.decideByTier[t] = new(hist)
	}
	var walBefore int64
	if wal := in.svc.Proxy().Durable(); wal != nil {
		walBefore = wal.Stats().Appends
	}
	tiersBefore := readTiers(in.snapshot())
	allocs := newAllocSampler()
	var allocSum, allocN uint64

	res.partSum = make(series, len(ops))
	res.decompAll = make(series, len(ops))
	// One op's timestamps: part k ran from marks[k].at to the next
	// mark's at. Booking them (histograms, span log) waits until the op's
	// last clock read, so the only instrument inside a decomposed op is
	// the clock itself, and trace_overhead_x measures just that.
	type mark struct {
		kind spanKind // spNone: glue between parts, the proxy's own work
		at   time.Time
	}
	marks := make([]mark, 0, 8)
	for i, o := range ops {
		se := &sessions[o.sess]
		got := outcome{}
		var d checker.Decision
		marks = marks[:0]
		stamp := func(kind spanKind) { marks = append(marks, mark{kind, time.Now()}) }
		switch o.kind {
		case opHello:
			stamp(spNone)
			tr, err := newTrace(int(o.sess))
			if err != nil {
				return err
			}
			se.tr = tr
		case opExec:
			args := sqlparser.PositionalArgs(o.args...)
			stamp(spParse)
			stmt, err := sqlparser.ParseNorm(def.stmts[o.stmt])
			if got.err = err; err == nil {
				stamp(spExec)
				_, got.rows, got.err = in.db.ExecStmt(stmt, args)
			}
		case opQuery:
			args := sqlparser.PositionalArgs(o.args...)
			sample := i%16 == 0
			var before uint64
			stamp(spParse)
			sel, err := sqlparser.ParseSelectNorm(def.stmts[o.stmt])
			if got.err = err; err != nil {
				break
			}
			if sample {
				stamp(spNone)
				before = allocs.objects()
			}
			stamp(spDecide)
			d = in.chk.CheckBorrowed(ctx, sel, args, se.attrs, se.tr)
			if sample {
				stamp(spNone)
				allocSum += allocs.objects() - before
				allocN++
			}
			if !d.Allowed {
				got.blocked = true
				break
			}
			stamp(spBind)
			bound, err := sqlparser.Bind(sel, args)
			if got.err = err; err != nil {
				break
			}
			stamp(spQuery)
			qres, err := in.db.QueryCtx(ctx, bound.(*sqlparser.SelectStmt))
			if got.err = err; err != nil {
				break
			}
			stamp(spNone) // the row copy is the proxy's, not the trace's
			rows := make([][]sqlvalue.Value, len(qres.Rows))
			for r, row := range qres.Rows {
				rows[r] = append([]sqlvalue.Value(nil), row...)
			}
			stamp(spAppend)
			se.tr.Append(trace.Entry{SQL: def.stmts[o.stmt], Stmt: sel, Args: args, Columns: qres.Columns, Rows: rows})
			res.queries++
			res.queryRows += int64(len(rows))
			res.appends++
			res.appendRows += int64(len(rows))
			got.rows = len(rows)
		}
		opEnd := time.Now()

		var sum int64
		for k, mk := range marks {
			if mk.kind == spNone {
				continue
			}
			next := opEnd
			if k+1 < len(marks) {
				next = marks[k+1].at
			}
			took := int64(next.Sub(mk.at))
			sum += took
			res.parts[mk.kind].observe(took)
			log.add(i, mk.kind, spDecomped, mk.at, next)
			if mk.kind == spDecide {
				res.decideByTier[tierOf(d)].observe(took)
				res.tierN[tierOf(d)]++
			}
		}
		res.partSum[i] = sum
		res.decompAll[i] = int64(opEnd.Sub(marks[0].at))
		log.add(i, spDecomped, spNone, marks[0].at, opEnd)
		if why := verify(o, got, true); why != "" {
			fails.add(o, "decomposed replay: "+why)
		}
	}
	if allocN > 0 {
		res.decideAllocs = float64(allocSum) / float64(allocN)
	}
	d := readTiers(in.snapshot()).sub(tiersBefore)
	res.coldKept, res.coldPruned = d.coldKept, d.coldPruned
	if wal := in.svc.Proxy().Durable(); wal != nil {
		res.walAppends = wal.Stats().Appends - walBefore
	}
	return nil
}

// replayIngress sends the same ops over the workload's socket ingress,
// one at a time, and measures what only that ingress can show: session
// and connection set-up, and allocations per round trip (client and
// server share the process, so the count covers both ends).
func replayIngress(ctx context.Context, in *instance, ops []*op, res *replayResult, log *spanLog, fails *failures) error {
	res.ingress = make(series, len(ops))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i, o := range ops {
		t0 := time.Now()
		got := in.tgt.do(ctx, o)
		t1 := time.Now()
		res.ingress[i] = int64(t1.Sub(t0))
		res.ingressRows += int64(got.rows)
		res.ingressBytes += int64(got.bytes)
		log.add(i, spIngress, spNone, t0, t1)
		if why := verify(o, got, true); why != "" {
			fails.add(o, "ingress replay: "+why)
		}
	}
	runtime.ReadMemStats(&ms)
	res.allocsPerRtt = float64(ms.Mallocs-mallocs) / float64(len(ops))

	const probes = 32
	switch t := in.tgt.(type) {
	case *v2Target:
		var h hist
		for i := 0; i < probes; i++ {
			ln := t.clients[0].Lane(uint64(1_000_000 + i))
			attrs := in.attrs[i%len(in.attrs)]
			t0 := time.Now()
			var err error
			if in.names != nil {
				_, err = ln.HelloDurable(ctx, fmt.Sprintf("bench-probe-%d", i), attrs)
			} else {
				err = ln.Hello(ctx, attrs)
			}
			if err != nil {
				return fmt.Errorf("hello probe: %w", err)
			}
			h.observe(int64(time.Since(t0)))
		}
		res.helloUs = h.quantile(0.5) / 1e3
	case *pgTarget:
		var h hist
		for i := 0; i < probes; i++ {
			t0 := time.Now()
			c, err := pgDial(in.svc.PgAddr(), map[string]string{"MyUId": "1"})
			if err != nil {
				return fmt.Errorf("connect probe: %w", err)
			}
			h.observe(int64(time.Since(t0)))
			c.close()
		}
		res.connectUs = h.quantile(0.5) / 1e3
	}
	return nil
}

// replayDriver sends v2_warm's ops through database/sql: one handle,
// pinned to one connection, per session, because the driver binds a
// session to a connection.
func replayDriver(ctx context.Context, in *instance, ops []*op, res *replayResult, log *spanLog, fails *failures) error {
	dbs := make([]*sql.DB, len(in.attrs))
	defer func() {
		for _, db := range dbs {
			if db != nil {
				db.Close()
			}
		}
	}()
	for s := range dbs {
		db, err := sql.Open("beyond", fmt.Sprintf("%s?MyUId=%v", in.svc.V2Addr(), in.attrs[s]["MyUId"]))
		if err != nil {
			return err
		}
		db.SetMaxOpenConns(1)
		dbs[s] = db
		if err := db.PingContext(ctx); err != nil {
			return fmt.Errorf("driver session %d: %w", s, err)
		}
	}
	res.driverRtt = make(series, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		got := driverDo(ctx, dbs[o.sess], in.def.stmts[o.stmt], o)
		t1 := time.Now()
		res.driverRtt[i] = int64(t1.Sub(t0))
		log.add(i, spDriver, spNone, t0, t1)
		if why := verify(o, got, true); why != "" {
			fails.add(o, "driver replay: "+why)
		}
	}
	return nil
}

func driverDo(ctx context.Context, db *sql.DB, stmt string, o *op) outcome {
	if o.kind == opExec {
		r, err := db.ExecContext(ctx, stmt, o.args...)
		if err != nil {
			return outcome{err: err}
		}
		n, _ := r.RowsAffected()
		return outcome{rows: int(n)}
	}
	rows, err := db.QueryContext(ctx, stmt, o.args...)
	if err != nil {
		if errors.Is(err, driver.ErrBlocked) {
			return outcome{blocked: true}
		}
		return outcome{err: err}
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		return outcome{err: err}
	}
	return outcome{rows: n, err: rows.Err()}
}
