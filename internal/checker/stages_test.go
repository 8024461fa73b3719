package checker

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

func exampleTrace() *trace.Trace {
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	return tr
}

// TestDecisionTiers pins which cache tier answers as the same check
// repeats: cold first, then the history-free tier, which also answers a
// new principal (same template); and a trace-dependent decision
// repeats out of the full template cache.
func TestDecisionTiers(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := exampleTrace()
	ctx := context.Background()

	// Cold decision: no tier.
	d1, err := c.CheckSQL(ctx, "SELECT EId FROM Attendance WHERE UId = ?",
		sqlparser.PositionalArgs(1), session(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Allowed || d1.FromCache || d1.Tier != "" {
		t.Fatalf("cold: %+v", d1)
	}

	// Identical concrete check: history-free tier.
	d2, err := c.CheckSQL(ctx, "SELECT EId FROM Attendance WHERE UId = ?",
		sqlparser.PositionalArgs(1), session(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.FromCache || d2.Tier != TierHistFree {
		t.Fatalf("repeat: want histfree-tier hit, got %+v", d2)
	}

	// New principal, same template: the history-free template answers.
	d3, err := c.CheckSQL(ctx, "SELECT EId FROM Attendance WHERE UId = ?",
		sqlparser.PositionalArgs(7), session(7), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.FromCache || d3.Tier != TierHistFree {
		t.Fatalf("new principal: want histfree-tier hit, got %+v", d3)
	}

	// Trace-dependent decision (Example 2.1's Q2): cold, then the full
	// template cache answers the repeat.
	d4 := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d4.Allowed || d4.Tier != "" {
		t.Fatalf("Q2 with history: %+v", d4)
	}
	d5 := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d5.FromCache || d5.Tier != TierTemplate {
		t.Fatalf("Q2 repeat: want template-tier hit, got %+v", d5)
	}

	// The tier counters agree with what we observed.
	reg := c.Metrics()
	if got := reg.Counter("checker.histfree.hit").Value(); got < 2 {
		t.Errorf("histfree.hit = %d, want >= 2", got)
	}
	if got := reg.Counter("checker.template.hit").Value(); got < 1 {
		t.Errorf("template.hit = %d, want >= 1", got)
	}
}

// TestPipelineMetricsRecorded verifies the stage table reports
// per-stage instruments into the checker's registry, and that parse
// time from CheckSQL lands there too: counters are exact, early answers
// and aborts are counted where they stop the decision, latencies are
// sampled one decision in sampleEvery, and concurrent decisions lose no
// count.
func TestPipelineMetricsRecorded(t *testing.T) {
	c := New(calendarPolicy(t))
	reg := c.Metrics()
	tr := exampleTrace()
	for i := 0; i < 3; i++ {
		mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	}
	snap := reg.Snapshot()
	for _, key := range []string{
		"pipeline.decide.bind.runs",
		"pipeline.decide.bind.micros",
		"pipeline.decide.histfree.runs",
		"pipeline.decide.facts.micros",
		"pipeline.decide.template.runs",
		"pipeline.decide.cover.micros",
		"pipeline.decide.total.micros",
		"pipeline.decide.aborts",
		"checker.parse.micros",
		"checker.decisions",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("registry snapshot missing %q", key)
		}
	}
	counter := func(name string) int64 { return reg.Counter("pipeline.decide." + name).Value() }
	if got := counter("bind.runs"); got != 3 {
		t.Errorf("bind.runs = %d, want 3", got)
	}
	// Cover ran for the cold decision only; the repeats hit the
	// template tier before it, which ended them.
	if got := counter("cover.runs"); got != 1 {
		t.Errorf("cover.runs = %d, want 1", got)
	}
	if got := counter("template.done"); got != 2 {
		t.Errorf("template.done = %d, want 2", got)
	}

	// Latency histograms are sampled: the first decision and every
	// sampleEvery-th after it.
	for i := 3; i < 2*sampleEvery; i++ {
		mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	}
	if got := counter("bind.runs"); got != 2*sampleEvery {
		t.Errorf("bind.runs = %d, want %d", got, 2*sampleEvery)
	}
	for _, h := range []string{"total", "bind", "template"} {
		if got := reg.Histogram("pipeline.decide." + h + ".micros").Snapshot().Count; got != 2 {
			t.Errorf("%s.micros count = %d, want 2 (sampled 1/%d)", h, got, sampleEvery)
		}
	}

	// A canceled decision stops at its first stage: one abort, no
	// verdict, nothing cached.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborts, verdicts, entries := counter("aborts"), counter("verdict.runs"), c.Stats().CacheEntries
	d, err := c.CheckSQL(ctx, "SELECT Title FROM Events WHERE EId = 9", sqlparser.NoArgs, session(1), tr)
	if err == nil || d.Allowed {
		t.Fatalf("canceled decision: %+v, %v", d, err)
	}
	if got := counter("aborts"); got != aborts+1 {
		t.Errorf("aborts = %d, want %d", got, aborts+1)
	}
	if got := counter("verdict.runs"); got != verdicts {
		t.Errorf("verdict.runs = %d after a canceled decision, want %d", got, verdicts)
	}
	if got := c.Stats().CacheEntries; got != entries {
		t.Errorf("a canceled decision changed the cache: %d -> %d entries", entries, got)
	}

	// Concurrent decisions count exactly.
	const workers, each = 4, 50
	runs := counter("bind.runs")
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
			}
		}()
	}
	wg.Wait()
	if got := counter("bind.runs"); got != runs+workers*each {
		t.Errorf("bind.runs = %d after %d concurrent decisions, want %d", got, workers*each, runs+workers*each)
	}
}

// TestSpanSetBreakdown verifies a caller that installs an
// obsv.SpanSet gets the per-stage breakdown for its one request —
// what the proxy's slow-decision log attaches — and that such a
// request is always timed, whatever the sampling would have skipped.
func TestSpanSetBreakdown(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := exampleTrace()
	ctx, ss := obsv.WithSpanSet(context.Background())
	if _, err := c.CheckSQL(ctx, "SELECT * FROM Events WHERE EId=2", sqlparser.NoArgs, session(1), tr); err != nil {
		t.Fatal(err)
	}
	m := ss.Micros()
	for _, stage := range []string{"parse", "bind", "facts", "cover", "verdict"} {
		if _, ok := m[stage]; !ok {
			t.Errorf("span breakdown missing stage %q: %v", stage, m)
		}
	}
	total := c.Metrics().Histogram("pipeline.decide.total.micros")
	before := total.Snapshot().Count
	for i := 0; i < 3; i++ {
		ctx, ss := obsv.WithSpanSet(context.Background())
		if _, err := c.CheckSQL(ctx, "SELECT * FROM Events WHERE EId=2", sqlparser.NoArgs, session(1), tr); err != nil {
			t.Fatal(err)
		}
		if _, ok := ss.Micros()["template"]; !ok {
			t.Fatalf("a SpanSet decision must always collect stage timings: %v", ss.Micros())
		}
	}
	if after := total.Snapshot().Count; after-before != 3 {
		t.Fatalf("SpanSet decisions must always reach the histogram: %d -> %d", before, after)
	}
}

// TestDisabledMetricsSameDecisions pins that an obsv.Disabled()
// checker decides identically (the no-op-metrics build used by the
// overhead guard) — only Stats() goes dark.
func TestDisabledMetricsSameDecisions(t *testing.T) {
	var opts Options
	opts.Metrics = obsv.Disabled()
	c := NewWithOptions(calendarPolicy(t), opts)
	tr := exampleTrace()
	d := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d.Allowed {
		t.Fatalf("decision must not depend on metrics: %s", d.Reason)
	}
	d = mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d.FromCache || d.Tier != TierTemplate {
		t.Fatalf("caching must not depend on metrics: %+v", d)
	}
	if st := c.Stats(); st.Decisions != 0 {
		t.Fatalf("disabled metrics must read zero decisions, got %+v", st)
	}
	if len(c.Metrics().Snapshot()) != 0 {
		t.Fatal("disabled registry must snapshot empty")
	}
}

// TestResetCacheRaceAllTiers hammers ResetCache (policy-snapshot
// republication plus wholesale cache drops) against concurrent
// decisions exercising both cache tiers at once: the history-free
// template tier (identical repeats, and rotating principals over one
// shape) and the sharded full-template cache (trace-dependent
// decisions).
// Run under -race in CI.
func TestResetCacheRaceAllTiers(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := exampleTrace()
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.ResetCache()
				time.Sleep(time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// History-free tier: identical concrete checks repeat into one
	// entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			d, err := c.CheckSQL(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?",
				sqlparser.PositionalArgs(1), session(1), tr)
			if err != nil {
				errs <- err
				return
			}
			if !d.Allowed {
				errs <- fmt.Errorf("repeat: own attendance blocked: %s", d.Reason)
				return
			}
		}
	}()
	// History-free tier: rotating principals share one template, so
	// each fresh (principal, args) lands on the same entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			uid := int64(i%16 + 1)
			d, err := c.CheckSQL(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?",
				sqlparser.PositionalArgs(uid), session(uid), tr)
			if err != nil {
				errs <- err
				return
			}
			if !d.Allowed {
				errs <- fmt.Errorf("histfree tier: uid %d blocked: %s", uid, d.Reason)
				return
			}
		}
	}()
	// Full-template tier: a trace-dependent decision (allowed only via
	// history facts) keys on the generalized facts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			d, err := c.CheckSQL(context.Background(), "SELECT * FROM Events WHERE EId=2",
				sqlparser.NoArgs, session(1), tr)
			if err != nil {
				errs <- err
				return
			}
			if !d.Allowed {
				errs <- fmt.Errorf("template tier: Q2 with history blocked: %s", d.Reason)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	resetter.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
