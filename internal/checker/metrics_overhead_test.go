package checker

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// hotpathTrace mirrors acbench -hotpath's session history: n prior
// point probes against Attendance.
func hotpathTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i+2)
		st := sqlparser.MustParseSelect(sql)
		tr.Append(trace.Entry{SQL: sql, Stmt: st, Args: sqlparser.NoArgs,
			Columns: []string{"1"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}}})
	}
	return tr
}

// newHotpathChecker builds a checker over the calendar policy with
// the given registry and warms the hotpath decision once.
func newHotpathChecker(t testing.TB, reg *obsv.Registry, tr *trace.Trace) (*Checker, *sqlparser.SelectStmt) {
	opts := DefaultOptions()
	opts.Metrics = reg
	c := NewWithOptions(calendarPolicy(t), opts)
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	return c, sel
}

// TestMetricsOverheadGuard asserts the instrumented CheckSQL path
// stays within 5% of a no-op-metrics (obsv.Disabled) build on the
// acbench -hotpath workload: a warm trace-dependent check against a
// 50-entry history. The per-op cost there is tens of microseconds,
// against which the pipeline's per-stage clock reads and atomic
// instruments are noise; this guard fails if instrumentation ever
// grows a hot-path allocation or lock.
//
// Measurement is interleaved min-of-trials (the minimum is the
// stablest location statistic under scheduler noise). Skipped under
// -race, which inflates atomics far past any real deployment.
func TestMetricsOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates atomic costs; overhead guard runs in the normal build")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	tr := hotpathTrace(50)
	cOn, selOn := newHotpathChecker(t, nil, tr)               // default: metrics on
	cOff, selOff := newHotpathChecker(t, obsv.Disabled(), tr) // no-op build

	// Many small strictly-interleaved blocks, min-of per side: the
	// minimum is the stablest location statistic under scheduler and
	// frequency noise, and interleaving exposes both sides to the
	// same machine conditions.
	const (
		iters  = 50
		trials = 30
	)
	sess := session(1)
	measure := func(c *Checker, sel *sqlparser.SelectStmt) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
		}
		return time.Since(start)
	}
	measure(cOn, selOn) // warmup
	measure(cOff, selOff)

	attempt := func() float64 {
		minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
		for trial := 0; trial < trials; trial++ {
			// Alternate which side goes first so ordering effects (branch
			// history, cache residency left by the previous block) cancel.
			if trial%2 == 0 {
				if d := measure(cOn, selOn); d < minOn {
					minOn = d
				}
				if d := measure(cOff, selOff); d < minOff {
					minOff = d
				}
			} else {
				if d := measure(cOff, selOff); d < minOff {
					minOff = d
				}
				if d := measure(cOn, selOn); d < minOn {
					minOn = d
				}
			}
		}
		ratio := float64(minOn) / float64(minOff)
		t.Logf("instrumented %v vs no-op %v per %d checks (ratio %.3f)", minOn, minOff, iters, ratio)
		return ratio
	}

	// Timing guard: a real regression fails every attempt; scheduler
	// noise clears on a retry. Pass if any attempt lands inside budget.
	const attempts = 4
	var ratios []float64
	for i := 0; i < attempts; i++ {
		r := attempt()
		if r <= 1.05 {
			return
		}
		ratios = append(ratios, r)
	}
	t.Errorf("instrumented CheckSQL exceeded the 5%% overhead budget on all %d attempts (ratios %.3f)",
		attempts, ratios)
}

// TestColdPathMetricsOverheadGuard is the cold-path sibling of
// TestMetricsOverheadGuard: the instrumented cold coverage search
// (compiled index, caching off so every check runs the full search)
// must stay within 5% of the no-op-metrics build. The cold path's
// instrumentation — prune counters, select/match histograms and span
// records — is gated on
// reg.Enabled(), and this guard fails if any of it ever runs (or
// allocates) in the disabled build, or grows past noise in the
// enabled one.
func TestColdPathMetricsOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates atomic costs; overhead guard runs in the normal build")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	s := benchColdSchema(t)
	pol := benchColdPolicy(s, 64)
	sel := benchColdQuery()
	sess := benchColdSession()

	newCold := func(reg *obsv.Registry) *Checker {
		opts := coldOpts(true)
		opts.Metrics = reg
		c := NewWithOptions(pol, opts)
		if d := c.Check(context.Background(), sel, sqlparser.NoArgs, sess, nil); !d.Allowed {
			t.Fatalf("cold workload should be allowed: %+v", d)
		}
		return c
	}
	cOn := newCold(nil)              // default: metrics on
	cOff := newCold(obsv.Disabled()) // no-op build

	const (
		iters  = 20
		trials = 20
	)
	measure := func(c *Checker) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.Check(context.Background(), sel, sqlparser.NoArgs, sess, nil)
		}
		return time.Since(start)
	}
	measure(cOn) // warmup
	measure(cOff)

	attempt := func() float64 {
		minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
		for trial := 0; trial < trials; trial++ {
			if trial%2 == 0 {
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
		ratio := float64(minOn) / float64(minOff)
		t.Logf("instrumented cold %v vs no-op %v per %d checks (ratio %.3f)", minOn, minOff, iters, ratio)
		return ratio
	}

	const attempts = 4
	var ratios []float64
	for i := 0; i < attempts; i++ {
		r := attempt()
		if r <= 1.05 {
			return
		}
		ratios = append(ratios, r)
	}
	t.Errorf("instrumented parallel cold path exceeded the 5%% overhead budget on all %d attempts (ratios %.3f)",
		attempts, ratios)
}

// BenchmarkCheckMetricsOn / BenchmarkCheckMetricsOff are the
// calibrated pair behind the overhead guard; compare with
// benchstat or acbench -json's metricsOverhead section.
func BenchmarkCheckMetricsOn(b *testing.B) {
	tr := hotpathTrace(50)
	c, sel := newHotpathChecker(b, nil, tr)
	sess := session(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
	}
}

func BenchmarkCheckMetricsOff(b *testing.B) {
	tr := hotpathTrace(50)
	c, sel := newHotpathChecker(b, obsv.Disabled(), tr)
	sess := session(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
	}
}
