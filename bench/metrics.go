package main

import (
	"fmt"
)

// layerMoves says, per layer, which end-to-end metric its metrics
// should move and on which workload: the prediction a later change is
// held to. It is printed beside every per-layer metric.
var layerMoves = map[string]string{
	"sqlparser": "lat_p50_us on v2_warm (small share); nothing on inproc_cold",
	"checker":   "tput_ops_s, lat_p50_us, enforce_overhead_x on inproc_cold; decide_front_us and the ratios only on v2_warm, pg_scan",
	"trace":     "lat_p50_us, mem_live_mb on pg_scan",
	"engine":    "tput_ops_s, lat_p50_us on pg_scan; exec_us on durable_mix; ~nothing on v2_warm",
	"durable":   "lat_p99_us, tput_ops_s, setup_s on durable_mix only",
	"proxy":     "tput_ops_s, lat_p50_us, slo_rate_ops_s on v2_warm, durable_mix; hello_us -> setup_s; nothing on inproc_cold",
	"pgwire":    "tput_ops_s, lat_p50_us on pg_scan",
	"driver":    "informational; guards the third ingress",
	"beyond":    "locates the knee behind slo_rate_ops_s",
	"loadgen":   "validity of every open-loop number and of the budget",
	"runtime":   "lat_p99_us everywhere",
}

// assemble turns a run's observations into named metrics: the
// end-to-end set, and the per-layer set as far as the run measured it
// (the span-derived ones need the traced replay). A per-layer metric a
// workload has no use for (pgwire.* off pg_scan, durable.* off
// durable_mix) reads 0.
func assemble(def *workloadDef, seed int64, seconds float64, m *measured) *workloadResult {
	res := &workloadResult{
		Workload: def.name, Seed: seed, Seconds: seconds,
		Attempted: m.attempt, Failed: m.fails.n.Load(), Notes: m.notes,
	}
	if m.replay != nil {
		res.Failed += m.replay.failed
		for _, f := range m.replay.firstFailures {
			res.Notes = append(res.Notes, "FAIL: "+f)
		}
	}
	for _, f := range m.fails.first {
		res.Notes = append(res.Notes, "FAIL: "+f)
	}
	res.Correct = res.Failed == 0

	lo, mid, hi := m.ladder[0], m.ladder[1], m.ladder[2]
	p99 := func(t trialResult) float64 { return t.P99Us }

	e := map[string]metric{}
	e["setup_s"] = metric{cell: cellOf(m.setups...), Unit: "s"}
	e["tput_ops_s"] = metric{cell: cellOf(m.closed.tput...), Unit: "ops/s",
		Note: fmt.Sprintf("closed loop, %d clients", nproc)}
	e["lat_p50_us"] = metric{cell: cellOf(m.closed.p50Us...), Unit: "us"}
	// Both trials pooled; the cell's extremes are the trials' own p99s.
	pooled := new(hist)
	for _, t := range mid.Trials {
		pooled.merge(t.lat)
	}
	midP99 := cellOf(trialValues(mid, p99)...)
	midP99.Median = pooled.quantile(0.99) / 1e3
	e["lat_p99_us"] = metric{cell: midP99, Unit: "us",
		Note: fmt.Sprintf("open loop at %d ops/s, from intended send time, n=%d over %d trials", def.rates[1], pooled.count(), len(mid.Trials))}
	e["slo_rate_ops_s"] = sloRateMetric(m.ladder)
	e["enforce_overhead_x"] = metric{cell: cellOf(m.overhead...), Unit: "ratio",
		Note: fmt.Sprintf("median of per-pair ratios; lat_p50_us %.2f enforcing / %.2f off",
			cellOf(m.closed.p50Us...).Median, cellOf(m.off.p50Us...).Median)}
	e["mem_live_mb"] = metric{cell: m.memMB, Unit: "MB"}
	e["fail_ratio"] = metric{cell: cellOf(float64(res.Failed) / float64(max(res.Attempted, 1))), Unit: "ratio"}
	res.EndToEnd = e

	p := map[string]metric{}
	res.PerLayer = p
	set := func(name, unit string, vals ...float64) { p[name] = metric{cell: cellOf(vals...), Unit: unit} }

	// durable: what the WAL did under nproc concurrent clients.
	set("durable.fsyncs_per_append", "ratio", share(m.wal.fsyncs, m.wal.appends))
	set("durable.batch_records", "count", share(m.wal.appends, m.wal.batches))
	set("durable.wal_bytes_per_append", "B", share(m.wal.bytes, m.wal.appends))
	set("durable.checkpoint_ms", "ms", m.wal.checkpointMs)
	set("durable.recover_ms", "ms", m.recov.recoverMs)
	set("durable.recovered_entries", "count", float64(m.recov.recoveredEntries))

	set("proxy.frames_per_flush", "count", share(m.snapDiff["proxy.write.frames"], m.snapDiff["proxy.write.flushes"]))
	set("proxy.inline_ratio", "ratio", share(m.snapDiff["proxy.inline.hits"], m.snapDiff["proxy.queries"]))

	// beyond: the rest of the ladder, to locate the knee.
	p50 := func(t trialResult) float64 { return t.P50Us }
	set("beyond.p50_r_lo_us", "us", trialValues(lo, p50)...)
	set("beyond.p50_r_mid_us", "us", trialValues(mid, p50)...)
	set("beyond.p99_r_lo_us", "us", trialValues(lo, p99)...)
	set("beyond.p99_r_hi_us", "us", trialValues(hi, p99)...)
	set("beyond.achieved_r_hi_ratio", "ratio", trialValues(hi, func(t trialResult) float64 { return t.Achieved / t.Rate })...)

	// loadgen: validity of every open-loop number. Lateness is judged
	// where it is a property of the generator (r_lo, r_mid); at r_hi a
	// saturated server leaves no worker waiting for the clock.
	var lateP50, lateP99, maxLate []float64
	var stalls float64
	for _, rg := range m.ladder[:2] {
		for _, t := range rg.Trials {
			lateP50 = append(lateP50, t.LateP50Us)
			lateP99 = append(lateP99, t.LateP99Us)
			maxLate = append(maxLate, t.MaxLateUs)
		}
	}
	for _, rg := range m.ladder {
		for _, t := range rg.Trials {
			stalls += float64(t.Stalls)
		}
	}
	set("loadgen.late_p50_us", "us", lateP50...)
	set("loadgen.late_p99_us", "us", cellOf(lateP99...).Max) // the worst trial
	set("loadgen.max_late_us", "us", cellOf(maxLate...).Max)
	set("loadgen.window_stalls", "count", stalls)

	// runtime, over the closed loop
	set("runtime.alloc_bytes_per_op", "B", float64(m.closedRT.allocBytes)/float64(max(m.closed.ops, 1)))
	set("runtime.gc_cycles", "count", float64(m.closedRT.gcCycles))
	set("runtime.gc_pause_p99_us", "us", m.closedRT.pauseP99Us)

	if m.replay != nil {
		replayMetrics(def, m.replay, set)
	}
	return res
}

// replayMetrics names what the traced replay's spans measured.
func replayMetrics(def *workloadDef, rp *replayResult, set func(name, unit string, vals ...float64)) {
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }

	// sqlparser
	set("sqlparser.parse_us", "us", us(rp.parts[spParse], 0.5))
	set("sqlparser.bind_us", "us", us(rp.parts[spBind], 0.5))

	// checker
	set("checker.decide_us", "us", us(rp.parts[spDecide], 0.5))
	set("checker.decide_p99_us", "us", us(rp.parts[spDecide], 0.99))
	var decisions int64
	for _, t := range tierNames {
		decisions += rp.tierN[t]
	}
	for _, t := range tierNames {
		set("checker.decide_"+t+"_us", "us", us(rp.decideByTier[t], 0.5))
		set("checker."+t+"_ratio", "ratio", share(rp.tierN[t], decisions))
	}
	set("checker.cold_prune_ratio", "ratio", share(rp.coldPruned, rp.coldKept+rp.coldPruned))
	set("checker.allocs_per_decide", "count", rp.decideAllocs)

	// trace and durable share one span: on a WAL-hooked trace Append is
	// the acknowledgement wait, so there the time is durable's.
	traceAppend, durableAppend, durableAppend99 := us(rp.parts[spAppend], 0.5), 0.0, 0.0
	if rp.walAppends > 0 {
		traceAppend, durableAppend, durableAppend99 = 0, traceAppend, us(rp.parts[spAppend], 0.99)
	}
	set("trace.append_us", "us", traceAppend)
	set("trace.rows_per_append", "count", float64(rp.appendRows)/float64(max(rp.appends, 1)))
	set("durable.append_us", "us", durableAppend)
	set("durable.append_p99_us", "us", durableAppend99)

	// engine
	set("engine.query_us", "us", us(rp.parts[spQuery], 0.5))
	set("engine.query_p99_us", "us", us(rp.parts[spQuery], 0.99))
	set("engine.rows_per_query", "count", float64(rp.queryRows)/float64(max(rp.queries, 1)))
	set("engine.exec_us", "us", us(rp.parts[spExec], 0.5))

	// proxy: self and transport are paired per op (whole minus the same
	// op's parts; round trip minus the same op's whole).
	self := make(series, rp.n)
	for i := range self {
		self[i] = selfTime(rp.whole[i], rp.partSum[i])
	}
	set("proxy.handle_us", "us", rp.whole.quantile(0.5)/1e3)
	set("proxy.handle_self_us", "us", self.quantile(0.5)/1e3)
	v2, pg := def.ingress == "v2", def.ingress == "pg"
	transport := make(series, len(rp.ingress))
	for i := range transport {
		transport[i] = rp.ingress[i] - rp.whole[i]
	}
	pick := func(on bool, v float64) float64 {
		if on {
			return v
		}
		return 0
	}
	set("proxy.v2_rtt_us", "us", pick(v2, rp.ingress.quantile(0.5)/1e3))
	set("proxy.v2_transport_us", "us", pick(v2, transport.quantile(0.5)/1e3))
	set("proxy.allocs_per_rtt", "count", pick(v2, rp.allocsPerRtt))
	set("proxy.hello_us", "us", rp.helloUs)

	// pgwire
	set("pgwire.rtt_us", "us", pick(pg, rp.ingress.quantile(0.5)/1e3))
	set("pgwire.transport_us", "us", pick(pg, transport.quantile(0.5)/1e3))
	set("pgwire.bytes_per_row", "B", share(rp.ingressBytes, rp.ingressRows))
	set("pgwire.connect_us", "us", rp.connectUs)

	// driver
	over := make(series, len(rp.driverRtt))
	for i := range over {
		over[i] = rp.driverRtt[i] - rp.ingress[i]
	}
	set("driver.rtt_us", "us", rp.driverRtt.quantile(0.5)/1e3)
	set("driver.overhead_us", "us", over.quantile(0.5)/1e3)

	set("loadgen.trace_overhead_x", "ratio", rp.decompAll.quantile(0.5)/max(rp.whole.quantile(0.5), 1))
}

func trialValues(r rung, f func(trialResult) float64) []float64 {
	var out []float64
	for _, t := range r.Trials {
		out = append(out, f(t))
	}
	return out
}

// sloRateMetric reports the highest rate that passes with every lower
// rate passing, as the rate its trials actually achieved: a measured
// number, not the rung's label, so two runs that hold the same rung
// still read as two measurements. The note says what stopped the ladder.
func sloRateMetric(ladder []rung) metric {
	i := sloRung(ladder)
	note := "every rung passed"
	if i+1 < len(ladder) {
		note = fmt.Sprintf("rung %d of %d (%.0f ops/s) fails: %s", i+2, len(ladder), ladder[i+1].Rate, ladder[i+1].fault())
	}
	if i < 0 {
		return metric{cell: cellOf(0), Unit: "ops/s", Note: note}
	}
	return metric{cell: cellOf(trialValues(ladder[i], func(t trialResult) float64 { return t.Achieved })...), Unit: "ops/s", Note: note}
}
