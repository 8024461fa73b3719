package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// openWindow is the backlog past which an open-loop send counts as a
// window stall: more than this many of its worker's later ops were
// already due when it went out. Latency runs from the intended send
// time, so the wait is charged to the system under test either way.
const openWindow = 256

// plan is how one run's measured seconds are spent. Every workload
// gets the same plan; only --seconds scales it.
type plan struct {
	warm        time.Duration
	closedSlice time.Duration
	closedN     int
	offSlice    time.Duration
	// open-loop trials per rung (r_lo, r_mid, r_hi) and their length.
	openTrials int
	openTrial  [3]time.Duration
}

// planFor splits seconds across the phases in fixed shares: 5 % warm-up,
// 45 % closed loop (8 slices), 20 % Off pass (8 slices, one after each
// closed-loop slice), 30 % open loop (2 trials per rung, the r_mid ones
// three times as long). The closed loop gets the most because every
// bounded metric comes from it; the open loop's numbers are reported
// without a bound (README "What the issue asked for and this box cannot
// hold").
func planFor(seconds float64) plan {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return plan{
		warm:        d(0.05),
		closedSlice: d(0.45 / 8),
		closedN:     8,
		offSlice:    d(0.20 / 8),
		openTrials:  2,
		openTrial:   [3]time.Duration{d(0.03), d(0.09), d(0.03)},
	}
}

// failures collects the first few check failures for the report and
// counts all of them.
type failures struct {
	mu    sync.Mutex
	n     atomic.Int64
	first []string
}

func (f *failures) add(o *op, why string) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf("session %d stmt %d args %v: %s", o.sess, o.stmt, o.args, why))
	}
	f.mu.Unlock()
}

// closedSlice is one closed-loop slice.
type closedSlice struct {
	tput  float64 // completed ops/s
	p50Us float64
	ops   int64
	rows  int64
}

// closedSlices accumulates the slices of one side (Enforce or Off).
type closedSlices struct {
	tput, p50Us []float64
	ops, rows   int64
}

func (c *closedSlices) add(s closedSlice) {
	c.tput = append(c.tput, s.tput)
	c.p50Us = append(c.p50Us, s.p50Us)
	c.ops += s.ops
	c.rows += s.rows
}

// closedLoop runs nproc clients, one outstanding op each, for span.
// Client c owns the sessions s with s mod nproc == c, so a session's
// ops stay in generated order and every label holds.
func closedLoop(ctx context.Context, in *instance, seed int64, span time.Duration, enforcing bool, fails *failures) closedSlice {
	hists := make([]*hist, nproc)
	stats := make([]closedSlice, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		h, st := new(hist), &stats[c]
		hists[c] = h
		gen := in.newGen(seed, c, nproc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o := gen.next()
				t0 := time.Now()
				if t0.Sub(start) >= span {
					return
				}
				out := in.tgt.do(ctx, o)
				h.observe(int64(time.Since(t0)))
				if why := verify(o, out, enforcing); why != "" {
					fails.add(o, why)
				}
				st.ops++
				st.rows += int64(out.rows)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var res closedSlice
	merged := new(hist)
	for c := range stats {
		merged.merge(hists[c])
		res.ops += stats[c].ops
		res.rows += stats[c].rows
	}
	// Ops in flight at the deadline complete after it; they count, and so
	// does the time they took.
	res.tput = float64(res.ops) / elapsed.Seconds()
	res.p50Us = merged.quantile(0.5) / 1e3
	return res
}

// openTrialRun offers Poisson arrivals at rate for span and measures
// every op from its intended send time. Worker w of nproc draws its own
// seeded Poisson schedule at rate/nproc (together they are one Poisson
// stream at rate) over the sessions s with s mod nproc == w, the
// partition closed-loop client w drives, and is both dispatcher and
// client: it waits on the clock until an op is due, sends it on its own
// connection, and waits for the answer. An op that comes due while its
// worker is still busy waits in the schedule, and the wait is charged
// as latency. No goroutine hands work to another, so nothing the
// generator does depends on a thread being woken.
func openTrialRun(ctx context.Context, in *instance, rate float64, span time.Duration, seed int64, fails *failures) trialResult {
	type due struct {
		o  *op
		at time.Duration
	}
	parts := make([][]due, nproc)
	n := 0
	for w := range parts {
		gen := in.newGen(seed, w, nproc)
		for _, at := range newSchedule(rate/float64(nproc), span, seed*int64(nproc)+int64(w)) {
			parts[w] = append(parts[w], due{gen.next(), at})
		}
		n += len(parts[w])
	}
	type tally struct {
		lat, late     hist
		failed, stall int64
		lastDone      time.Duration
	}
	tallies := make([]tally, nproc)
	runtime.GC() // a collection the schedule's allocation triggered is not the server's
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(part []due, t *tally) {
			defer wg.Done()
			nextDue := 0 // first op of part not yet due
			for i, d := range part {
				intended := start.Add(d.at)
				if time.Until(intended) > 0 {
					t.late.observe(int64(paceUntil(intended)))
				}
				for since := time.Since(start); nextDue < len(part) && part[nextDue].at <= since; {
					nextDue++
				}
				if nextDue-i > openWindow {
					t.stall++
				}
				out := in.tgt.do(ctx, d.o)
				t.lastDone = time.Since(start)
				t.lat.observe(int64(t.lastDone - d.at))
				if why := verify(d.o, out, true); why != "" {
					t.failed++
					fails.add(d.o, why)
				}
			}
		}(parts[w], &tallies[w])
	}
	wg.Wait()
	res := trialResult{Rate: float64(n) / span.Seconds(), N: int64(n), lat: new(hist)}
	late := new(hist)
	drained := span
	for w := range tallies {
		t := &tallies[w]
		res.lat.merge(&t.lat)
		late.merge(&t.late)
		res.Failed += t.failed
		res.Stalls += t.stall
		drained = max(drained, t.lastDone)
	}
	// Offered is what the schedule actually drew, so a Poisson count a
	// percent off nominal does not read as a backlog.
	res.Achieved = float64(res.N) / drained.Seconds()
	res.P50Us = res.lat.quantile(0.5) / 1e3
	res.P99Us = res.lat.quantile(0.99) / 1e3
	res.LateP50Us = late.quantile(0.5) / 1e3
	res.LateP99Us = late.quantile(0.99) / 1e3
	res.MaxLateUs = float64(late.maxValue()) / 1e3
	return res
}

// runtimeDelta is what the Go runtime did over a phase.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint32
	pauseP99Us float64
}

func runtimeSince(before *runtime.MemStats) runtimeDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	d := runtimeDelta{allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
	pauses := new(hist)
	for i := before.NumGC; i < after.NumGC && i < before.NumGC+uint32(len(after.PauseNs)); i++ {
		pauses.observe(int64(after.PauseNs[i%uint32(len(after.PauseNs))]))
	}
	d.pauseP99Us = pauses.quantile(0.99) / 1e3
	return d
}

// liveHeapMB is the heap still reachable after a forced collection:
// what the sessions, traces and caches hold.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
