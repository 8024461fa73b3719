package checker

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The decision's outcome at each entry point, read through what it
// publishes: the tier it reports, the checker.* counters, the
// pipeline.decide.* section histograms and a request's SpanSet
// (DESIGN.md §9.1, §9.2).

// sections is the enforcing decision's section order (DESIGN.md §9.1).
var sections = []string{"bind", "histfree", "facts", "template", "cover", "verdict"}

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

// outcomeCounters are the counters that tell one decision's outcome.
var outcomeCounters = []string{
	"checker.decisions", "checker.cache.hits", "checker.histfree.hit",
	"checker.template.hit", "checker.template.miss", "pipeline.decide.aborts",
}

// deltas runs f and returns how far each of the outcome counters moved,
// plus "searched": the views the cover search kept or pruned, which
// moves exactly when a search ran.
func deltas(reg *obsv.Registry, f func()) map[string]int64 {
	read := func() map[string]int64 {
		m := map[string]int64{}
		for _, n := range outcomeCounters {
			m[n] = reg.Counter(n).Value()
		}
		m["searched"] = reg.Counter("checker.cold.views.kept").Value() + reg.Counter("checker.cold.views.pruned").Value()
		return m
	}
	before := read()
	f()
	d := read()
	for n := range d {
		d[n] -= before[n]
	}
	return d
}

// sectionsTimed returns the sections ss holds a span of, in order.
func sectionsTimed(ss *obsv.SpanSet) []string {
	var out []string
	m := ss.Micros()
	for _, s := range sections {
		if _, ok := m[s]; ok {
			out = append(out, s)
		}
	}
	return out
}

// TestStagesRunInOrder pins each outcome of the enforcing decision:
// which tier answers, what it counts, whether a cover search ran, and
// which sections its breakdown names — a prefix of the order, each
// once: a cold decision all six, one a tier answers exactly the
// sections through that tier's.
func TestStagesRunInOrder(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := exampleTrace()
	eid := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	att := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	other := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=3")
	for _, tc := range []struct {
		name    string
		sel     *sqlparser.SelectStmt
		tr      *trace.Trace
		last    string // the section that ends the decision
		tier    string
		counted []string // the outcome counters that move, by one
		search  bool
	}{
		{"cold", eid, tr, "verdict", "", []string{"checker.template.miss"}, true},
		{"template hit", eid, tr, "template", TierTemplate, []string{"checker.template.hit", "checker.cache.hits"}, false},
		{"history-free allow", att, tr, "histfree", "", nil, true},
		{"history-free hit", att, tr, "histfree", TierHistFree, []string{"checker.histfree.hit", "checker.cache.hits"}, false},
		{"no trace, cold", other, nil, "verdict", "", []string{"checker.template.miss"}, true},
		{"no trace, hit", other, nil, "template", TierTemplate, []string{"checker.template.hit", "checker.cache.hits"}, false},
	} {
		ctx, ss := obsv.WithSpanSet(context.Background())
		var d Decision
		got := deltas(c.Metrics(), func() { d = c.Check(ctx, tc.sel, sqlparser.NoArgs, session(1), tc.tr) })
		if d.Tier != tc.tier {
			t.Fatalf("%s: decision %+v, want tier %q", tc.name, d, tc.tier)
		}
		want := map[string]int64{"checker.decisions": 1}
		for _, n := range tc.counted {
			want[n] = 1
		}
		for _, n := range outcomeCounters {
			if got[n] != want[n] {
				t.Fatalf("%s: %s moved by %d, want %d", tc.name, n, got[n], want[n])
			}
		}
		if (got["searched"] > 0) != tc.search {
			t.Fatalf("%s: cover search ran: %v, want %v", tc.name, got["searched"] > 0, tc.search)
		}
		through := sections[:slices.Index(sections, tc.last)+1]
		if names := sectionsTimed(ss); !slices.Equal(names, through) {
			t.Fatalf("%s: sections %v, want %v", tc.name, names, through)
		}
	}
}

// TestDoneShortCircuits pins that a tier hit ends the decision: no
// search, no store, no miss.
func TestDoneShortCircuits(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := exampleTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	entries := c.Stats().CacheEntries
	var d Decision
	got := deltas(c.Metrics(), func() { d = c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr) })
	if d.Tier != TierTemplate || got["checker.template.hit"] != 1 {
		t.Fatalf("repeat must hit the template tier: %+v, %v", d, got)
	}
	if got["searched"] != 0 || got["checker.template.miss"] != 0 || c.Stats().CacheEntries != entries {
		t.Fatalf("a hit searched, missed or stored: %v, entries %d -> %d", got, entries, c.Stats().CacheEntries)
	}
}

// TestAbortCountsAndStops pins that a canceled decision counts one
// abort, ends in the section that saw the cancellation, stores nothing
// and comes back blocked.
func TestAbortCountsAndStops(t *testing.T) {
	c := New(calendarPolicy(t))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, ss := obsv.WithSpanSet(canceled)
	var d Decision
	got := deltas(c.Metrics(), func() {
		d = c.Check(ctx, sqlparser.MustParseSelect("SELECT Title FROM Events WHERE EId = 9"),
			sqlparser.NoArgs, session(1), exampleTrace())
	})
	if d.Allowed || d.Reason != canceledDecision(ctx).Reason {
		t.Fatalf("a canceled decision must block: %+v", d)
	}
	if got["pipeline.decide.aborts"] != 1 || got["checker.decisions"] != 1 {
		t.Fatalf("aborts and decisions must move by one: %v", got)
	}
	if got["searched"] != 0 || c.Stats().CacheEntries != 0 {
		t.Fatalf("nothing may run or be stored after the abort: %v", got)
	}
	if names := sectionsTimed(ss); !slices.Equal(names, []string{"bind"}) {
		t.Fatalf("sections %v, want only bind", names)
	}
}

// TestMetricsRecorded pins exact counters and sampled latency
// histograms: the first decision and every sampleEvery-th after it.
func TestMetricsRecorded(t *testing.T) {
	c := New(calendarPolicy(t))
	reg := c.Metrics()
	tr := exampleTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	runs := 2 * sampleEvery
	for i := 0; i < runs; i++ {
		c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	}
	if got := reg.Counter("checker.decisions").Value(); got != int64(runs) {
		t.Fatalf("decisions = %d, want %d", got, runs)
	}
	if got := reg.Counter("checker.template.hit").Value(); got != int64(runs-1) {
		t.Fatalf("template hits = %d, want %d", got, runs-1)
	}
	for _, h := range []string{"total", "bind", "template"} {
		if got := reg.Histogram("pipeline.decide." + h + ".micros").Snapshot().Count; got != 2 {
			t.Fatalf("%s.micros count = %d, want 2 (sampled 1/%d)", h, got, sampleEvery)
		}
	}
	// The cold decision was the sampled one: only it reached cover.
	if got := reg.Histogram("pipeline.decide.cover.micros").Snapshot().Count; got != 1 {
		t.Fatalf("cover.micros count = %d, want 1", got)
	}
}

// TestSpanSetRunsAlwaysTimed pins that a decision whose context carries
// a SpanSet is timed whatever the sampling tick.
func TestSpanSetRunsAlwaysTimed(t *testing.T) {
	c := New(calendarPolicy(t))
	reg := c.Metrics()
	tr := exampleTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	// Burn the sampled slot so later plain decisions are counted-only.
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	hist := reg.Histogram("pipeline.decide.bind.micros")
	before := hist.Snapshot().Count
	for i := 0; i < 3; i++ {
		ctx, ss := obsv.WithSpanSet(context.Background())
		c.Check(ctx, sel, sqlparser.NoArgs, session(1), tr)
		if _, ok := ss.Micros()["bind"]; !ok {
			t.Fatal("SpanSet decision must always collect section timings")
		}
	}
	if after := hist.Snapshot().Count; after-before != 3 {
		t.Fatalf("SpanSet decisions must always hit the histogram: %d -> %d", before, after)
	}
}

// TestSpanSetReceivesStageTimings pins that a cold decision records a
// span for every section, under the section's name.
func TestSpanSetReceivesStageTimings(t *testing.T) {
	c := New(calendarPolicy(t))
	ctx, ss := obsv.WithSpanSet(context.Background())
	c.Check(ctx, sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2"),
		sqlparser.NoArgs, session(1), exampleTrace())
	m := ss.Micros()
	for _, s := range sections {
		if _, ok := m[s]; !ok {
			t.Fatalf("span set missing %s: %v", s, m)
		}
	}
}

// TestSpanSetBreakdown pins what the proxy's slow-decision log attaches
// for one CheckSQL request: the parse span beside the sections.
func TestSpanSetBreakdown(t *testing.T) {
	c := New(calendarPolicy(t))
	ctx, ss := obsv.WithSpanSet(context.Background())
	if _, err := c.CheckSQL(ctx, "SELECT * FROM Events WHERE EId=2", sqlparser.NoArgs, session(1), exampleTrace()); err != nil {
		t.Fatal(err)
	}
	m := ss.Micros()
	for _, s := range append([]string{"parse"}, sections...) {
		if _, ok := m[s]; !ok {
			t.Errorf("span breakdown missing %q: %v", s, m)
		}
	}
}

// TestPipelineMetricsRecorded pins the decision's instruments in the
// registry: a histogram per section, the total and the abort counter,
// and CheckSQL's parse time; and no per-section run or answer counter,
// which would only repeat checker.decisions and the tier counters.
func TestPipelineMetricsRecorded(t *testing.T) {
	c := New(calendarPolicy(t))
	mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), exampleTrace())
	snap := c.Metrics().Snapshot()
	want := []string{"pipeline.decide.total.micros", "pipeline.decide.aborts", "checker.parse.micros", "checker.decisions"}
	for _, s := range sections {
		want = append(want, "pipeline.decide."+s+".micros")
		for _, gone := range []string{".runs", ".done"} {
			if _, ok := snap["pipeline.decide."+s+gone]; ok {
				t.Errorf("registry still holds pipeline.decide.%s%s", s, gone)
			}
		}
	}
	for _, n := range want {
		if _, ok := snap[n]; !ok {
			t.Errorf("registry snapshot missing %q", n)
		}
	}
}

// TestEntryPointsCount pins what the other two entry points count:
// CheckCold searches and counts, times and stores nothing;
// CheckWarmBorrowed counts a hit as a history-free hit through Check
// would, and a miss not at all, without searching.
func TestEntryPointsCount(t *testing.T) {
	c := New(calendarPolicy(t))
	reg := c.Metrics()
	tr := exampleTrace()
	att := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	total := reg.Histogram("pipeline.decide.total.micros")

	var d Decision
	got := deltas(reg, func() { d = c.CheckCold(context.Background(), att, sqlparser.NoArgs, session(1), tr) })
	if !d.Allowed || d.Tier != "" || got["searched"] == 0 || c.Stats().CacheEntries != 0 || total.Snapshot().Count != 0 {
		t.Fatalf("CheckCold: %+v, %v, %d entries", d, got, c.Stats().CacheEntries)
	}
	for _, n := range outcomeCounters {
		if got[n] != 0 {
			t.Fatalf("CheckCold moved %s: %v", n, got)
		}
	}

	var ok bool
	got = deltas(reg, func() { d, ok = c.CheckWarmBorrowed(att, sqlparser.NoArgs, session(1)) })
	if ok || got["searched"] != 0 || got["checker.decisions"] != 0 {
		t.Fatalf("warm probe of a cold key: %+v %v, %v", d, ok, got)
	}
	c.Check(context.Background(), att, sqlparser.NoArgs, session(1), tr)
	got = deltas(reg, func() { d, ok = c.CheckWarmBorrowed(att, sqlparser.NoArgs, session(1)) })
	if !ok || !d.Allowed || d.Tier != TierHistFree || got["searched"] != 0 {
		t.Fatalf("warm probe of a warm key: %+v %v, %v", d, ok, got)
	}
	for n, want := range map[string]int64{"checker.decisions": 1, "checker.cache.hits": 1, "checker.histfree.hit": 1} {
		if got[n] != want {
			t.Fatalf("warm probe hit: %s moved by %d, want %d", n, got[n], want)
		}
	}
}

// TestDisabledRegistryStillRuns pins that a checker with
// instrumentation off takes the same tiers: cold decisions, hits and
// aborts are unchanged, and nothing is recorded.
func TestDisabledRegistryStillRuns(t *testing.T) {
	reg := obsv.Disabled()
	c := NewWithOptions(calendarPolicy(t), Options{Metrics: reg})
	tr := exampleTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	if d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr); !d.Allowed || d.Tier != "" {
		t.Fatalf("cold decision: %+v", d)
	}
	if d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr); !d.Allowed || d.Tier != TierTemplate {
		t.Fatalf("repeat must hit the template tier: %+v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if d := c.Check(ctx, sel, sqlparser.NoArgs, session(1), tr); d.Allowed {
		t.Fatalf("a canceled decision must block: %+v", d)
	}
	if len(reg.Snapshot()) != 0 || c.Stats().Decisions != 0 {
		t.Fatal("disabled registry must snapshot empty")
	}
}

// TestDisabledMetricsSameDecisions pins that an obsv.Disabled() checker
// decides identically to an instrumented one (the no-op-metrics build
// the overhead guard times), decision for decision: verdict, reason,
// views and tier.
func TestDisabledMetricsSameDecisions(t *testing.T) {
	on := New(calendarPolicy(t))
	off := NewWithOptions(calendarPolicy(t), Options{Metrics: obsv.Disabled()})
	tr := exampleTrace()
	for _, sql := range []string{
		"SELECT * FROM Events WHERE EId=2", "SELECT * FROM Events WHERE EId=2",
		"SELECT EId FROM Attendance WHERE UId = 1", "SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT * FROM Events WHERE EId=9", "SELECT * FROM Events WHERE EId=9",
	} {
		for _, trace := range []*trace.Trace{tr, nil} {
			a, b := mustCheck(t, on, sql, session(1), trace), mustCheck(t, off, sql, session(1), trace)
			if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
				t.Fatalf("%q: instrumented %+v, disabled %+v", sql, a, b)
			}
		}
	}
}

// TestConcurrentRuns pins that concurrent decisions count exactly: every
// decision once, and every hit once as a cache hit and once as its tier's.
func TestConcurrentRuns(t *testing.T) {
	c := New(calendarPolicy(t))
	reg := c.Metrics()
	tr := exampleTrace()
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	const workers, each = 8, 200
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
	st := c.Stats()
	if st.Decisions != workers*each || st.Allowed != workers*each {
		t.Fatalf("decisions = %d, allowed = %d, want %d", st.Decisions, st.Allowed, workers*each)
	}
	hits := reg.Counter("checker.histfree.hit").Value()
	if int64(st.CacheHits) != hits || hits < workers*each-workers {
		t.Fatalf("cache hits = %d, histfree hits = %d: want equal, and at most %d cold decisions", st.CacheHits, hits, workers)
	}
}

// TestDecisionTiers pins which cache tier answers as the same check
// repeats: cold first, then the history-free tier, which also answers a
// new principal (same template); and a trace-dependent decision
// repeats out of the template tier.
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
	if !d1.Allowed || d1.Tier != "" {
		t.Fatalf("cold: %+v", d1)
	}

	// Identical concrete check: history-free tier.
	d2, err := c.CheckSQL(ctx, "SELECT EId FROM Attendance WHERE UId = ?",
		sqlparser.PositionalArgs(1), session(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Tier != TierHistFree {
		t.Fatalf("repeat: want histfree-tier hit, got %+v", d2)
	}

	// New principal, same template: the history-free template answers.
	d3, err := c.CheckSQL(ctx, "SELECT EId FROM Attendance WHERE UId = ?",
		sqlparser.PositionalArgs(7), session(7), tr)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Tier != TierHistFree {
		t.Fatalf("new principal: want histfree-tier hit, got %+v", d3)
	}

	// Trace-dependent decision (Example 2.1's Q2): cold, then the
	// template tier answers the repeat.
	d4 := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if !d4.Allowed || d4.Tier != "" {
		t.Fatalf("Q2 with history: %+v", d4)
	}
	d5 := mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	if d5.Tier != TierTemplate {
		t.Fatalf("Q2 repeat: want template-tier hit, got %+v", d5)
	}

	// The tier counters agree with what we observed.
	reg := c.Metrics()
	if got := reg.Counter("checker.histfree.hit").Value(); got != 2 {
		t.Errorf("histfree.hit = %d, want 2", got)
	}
	if got := reg.Counter("checker.template.hit").Value(); got != 1 {
		t.Errorf("template.hit = %d, want 1", got)
	}
}

// TestResetCacheRaceAllTiers hammers ResetCache (policy-snapshot
// republication plus wholesale cache drops) against concurrent
// decisions exercising both cache tiers at once: the history-free
// tier (identical repeats, and rotating principals over one shape) and
// the template tier (trace-dependent decisions).
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
	// Template tier: a trace-dependent decision (allowed only via
	// history facts) is stored under its justification.
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
