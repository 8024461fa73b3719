package checker

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// hotpathTrace is a hot-path session history: n prior point probes
// against Attendance.
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
	var opts Options
	opts.Metrics = reg
	c := NewWithOptions(calendarPolicy(t), opts)
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	return c, sel
}

// BenchmarkMetricsOverheadGuard is a timing gate. A neighbouring
// process on a shared box can decide its verdict, so plain `go test`
// never runs it: `make timingguard` runs it once (-benchtime=1x), and
// TestMetricsOverheadDeterministic checks by counting what it times. It
// asserts the instrumented Check path stays within 5% of a
// no-op-metrics (obsv.Disabled) build on the hot-path workload: a warm
// trace-dependent check against a 50-entry history. The per-op cost
// there is tens of microseconds, against which the decision's
// per-section clock reads and atomic instruments are noise; this guard
// fails if instrumentation ever grows a hot-path allocation or lock.
//
// Each trial times a block of instrumented checks and a block of no-op
// ones back to back, and the verdict reads the median of the trials'
// ratios against their spread (overheadGuard). Skipped under -race,
// which inflates atomics far past any real deployment.
func BenchmarkMetricsOverheadGuard(b *testing.B) {
	if raceEnabled {
		b.Skip("race detector inflates atomic costs; overhead guard runs in the normal build")
	}
	tr := hotpathTrace(50)
	cOn, selOn := newHotpathChecker(b, nil, tr)               // default: metrics on
	cOff, selOff := newHotpathChecker(b, obsv.Disabled(), tr) // no-op build
	const iters = 50
	sess := session(1)
	measure := func(c *Checker, sel *sqlparser.SelectStmt) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				c.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
			}
			return time.Since(start)
		}
	}
	overheadGuard(b, "instrumented Check", 30, measure(cOn, selOn), measure(cOff, selOff))
}

// overheadGuard is the verdict of the metrics overhead guards: the
// instrumented side (on) within 5% of the no-op side (off). A round
// runs trials strictly interleaved — each times one block of each side
// back to back, alternating which goes first, so ordering effects
// cancel and both sides see the same machine — and takes the median of
// the trials' on/off ratios and their spread (interquartile range). A
// round whose median is within budget passes. One whose median is over
// it by more than the spread fails at once: a real regression moves
// every trial. One in between, where noise could have put the median
// over, runs again, up to four rounds.
func overheadGuard(b *testing.B, what string, trials int, on, off func() time.Duration) {
	const budget, rounds = 1.05, 4
	on() // warmup
	off()
	var seen []string
	for range rounds {
		ratios := make([]float64, trials)
		for i := range ratios {
			var dOn, dOff time.Duration
			if i%2 == 0 {
				dOn, dOff = on(), off()
			} else {
				dOff, dOn = off(), on()
			}
			ratios[i] = float64(dOn) / float64(dOff)
		}
		med, spread := medianSpread(ratios)
		b.Logf("%s vs no-op: median ratio %.3f, spread %.3f over %d trials", what, med, spread, trials)
		if med <= budget {
			return
		}
		seen = append(seen, fmt.Sprintf("%.3f (spread %.3f)", med, spread))
		if med-budget > spread {
			break
		}
	}
	b.Errorf("%s exceeded the 5%% overhead budget: median ratios %s", what, strings.Join(seen, ", "))
}

// medianSpread returns the median of xs and their interquartile range.
func medianSpread(xs []float64) (med, spread float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return q(0.5), q(0.75) - q(0.25)
}

// instrumentUpdates runs decide once and counts the instrument updates
// it made in reg: one for each counter whose count changed (a batched
// Add is one update, whatever its amount) and one for each histogram
// sample.
func instrumentUpdates(reg *obsv.Registry, decide func()) int64 {
	before := reg.Snapshot()
	decide()
	var n int64
	for name, v := range reg.Snapshot() {
		switch x := v.(type) {
		case int64:
			if prev, _ := before[name].(int64); x != prev {
				n++
			}
		case obsv.HistogramSnapshot:
			prev, _ := before[name].(obsv.HistogramSnapshot)
			n += x.Count - prev.Count
		}
	}
	return n
}

// TestMetricsOverheadDeterministic is the deterministic twin of the two
// timing guards in this file: it checks, by counting, what their timing
// stands for. A block of instrumented decisions — sampleEvery of them per
// eight, so every sampling phase is in it — records at most a fixed
// number of instrument updates, and an instrumented decision allocates
// no more than the same decision under obsv.Disabled(). It covers the
// warm, trace-dependent decision BenchmarkMetricsOverheadGuard times and
// the cold search BenchmarkColdPathMetricsOverheadGuard times; an extra Observe
// in a section, a counter bumped per fact, or an allocating instrument
// fails it on any machine.
func TestMetricsOverheadDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation accounting")
	}
	const block = 8 * sampleEvery
	ctx, sess := context.Background(), session(1)
	tr := hotpathTrace(50)
	cold := func(reg *obsv.Registry) func() {
		c := NewWithOptions(benchColdPolicy(benchColdSchema(t), 64), Options{Metrics: reg})
		sel, sess := benchColdQuery(), benchColdSession()
		return func() {
			if d := c.CheckCold(ctx, sel, sqlparser.NoArgs, sess, nil); !d.Allowed {
				t.Fatalf("cold workload should be allowed: %+v", d)
			}
		}
	}
	warm := func(reg *obsv.Registry) func() {
		c, sel := newHotpathChecker(t, reg, tr)
		return func() { c.Check(ctx, sel, sqlparser.NoArgs, sess, tr) }
	}
	for _, tc := range []struct {
		name    string
		decide  func(*obsv.Registry) func()
		updates int64 // the budget per block, as measured when the twin was written
	}{
		{"warm", warm, 360},
		{"cold", cold, 192},
	} {
		reg := obsv.NewRegistry()
		on, off := tc.decide(reg), tc.decide(obsv.Disabled())
		var got int64
		for range block {
			got += instrumentUpdates(reg, on)
		}
		if got > tc.updates {
			t.Errorf("%s: %d instrument updates per %d decisions, budget %d", tc.name, got, block, tc.updates)
		}
		if a, b := testing.AllocsPerRun(block, on), testing.AllocsPerRun(block, off); a > b {
			t.Errorf("%s: an instrumented decision allocates %v times, %v under obsv.Disabled()", tc.name, a, b)
		}
	}
}

// BenchmarkColdPathMetricsOverheadGuard is the cold-path sibling of
// BenchmarkMetricsOverheadGuard, a timing gate run the same way: the
// instrumented cold coverage search
// (CheckCold, so every check runs the full search) must stay within 5%
// of the no-op-metrics build. The cold path's
// instrumentation — prune counters, select/match histograms and span
// records — is gated on
// reg.Enabled(), and this guard fails if any of it ever runs (or
// allocates) in the disabled build, or grows past noise in the
// enabled one.
func BenchmarkColdPathMetricsOverheadGuard(b *testing.B) {
	if raceEnabled {
		b.Skip("race detector inflates atomic costs; overhead guard runs in the normal build")
	}
	s := benchColdSchema(b)
	pol := benchColdPolicy(s, 64)
	sel := benchColdQuery()
	sess := benchColdSession()

	newCold := func(reg *obsv.Registry) *Checker {
		c := NewWithOptions(pol, Options{Metrics: reg})
		if d := c.CheckCold(context.Background(), sel, sqlparser.NoArgs, sess, nil); !d.Allowed {
			b.Fatalf("cold workload should be allowed: %+v", d)
		}
		return c
	}
	const iters = 20
	measure := func(c *Checker) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				c.CheckCold(context.Background(), sel, sqlparser.NoArgs, sess, nil)
			}
			return time.Since(start)
		}
	}
	overheadGuard(b, "instrumented cold path", 20, measure(newCold(nil)), measure(newCold(obsv.Disabled())))
}

// BenchmarkCheckMetricsOn / BenchmarkCheckMetricsOff are the
// calibrated pair behind the overhead guard; compare with
// benchstat.
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
