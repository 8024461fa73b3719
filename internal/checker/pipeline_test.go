// The checker's decide stage table, tested from outside the checker:
// only through its exported API and the pipeline.decide.* metrics and
// spans it publishes (DESIGN.md §9.1, §9.2). The table itself lives in
// stages.go.

package checker_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/checker"
	"repro/internal/obsv"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// stages is the decide table's stage order (DESIGN.md §9.1).
var stages = []string{"bind", "histfree", "facts", "template", "cover", "verdict"}

// sampleEvery is the checker's latency sampling period (DESIGN.md
// §9.2): the first decision and every sampleEvery-th after it are timed.
const sampleEvery = 8

func calendarPolicy(t *testing.T) *policy.Policy {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("Events").
		OpaqueCol("EId", sqlvalue.Int).
		NotNullCol("Title", sqlvalue.Text).
		PK("EId").Done().
		Table("Attendance").
		NotNullCol("UId", sqlvalue.Int).
		NotNullCol("EId", sqlvalue.Int).
		PK("UId", "EId").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return policy.MustNew(s, map[string]string{
		"V1": "SELECT EId FROM Attendance WHERE UId = ?MyUId",
		"V2": "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
	})
}

// attendanceTrace records that user 1 attends event 2, which V2 needs
// to reveal event 2.
func attendanceTrace() *trace.Trace {
	tr := &trace.Trace{}
	q := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q.SQL(), Stmt: q, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	return tr
}

func session(uid int64) map[string]sqlvalue.Value {
	return map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(uid)}
}

// newChecker returns a checker reporting into its own fresh registry.
func newChecker(t *testing.T) (*checker.Checker, *obsv.Registry) {
	reg := obsv.NewRegistry()
	return checker.NewWithOptions(calendarPolicy(t), checker.Options{Metrics: reg}), reg
}

func counter(reg *obsv.Registry, name string) int64 {
	return reg.Counter("pipeline.decide." + name).Value()
}

// runsDelta returns how many times each stage ran during f.
func runsDelta(reg *obsv.Registry, f func()) []int64 {
	before := make([]int64, len(stages))
	for i, s := range stages {
		before[i] = counter(reg, s+".runs")
	}
	f()
	d := make([]int64, len(stages))
	for i, s := range stages {
		d[i] = counter(reg, s+".runs") - before[i]
	}
	return d
}

// TestStagesRunInOrder pins that every decision runs a prefix of the
// table, each stage once: a cold decision runs all six, and a
// decision a stage answers runs exactly the stages up to that one.
func TestStagesRunInOrder(t *testing.T) {
	c, reg := newChecker(t)
	tr := attendanceTrace()
	eid := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	att := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	for _, tc := range []struct {
		name string
		sel  *sqlparser.SelectStmt
		sess map[string]sqlvalue.Value
		last string // the stage that ends the decision
		tier string
	}{
		{"cold", eid, session(1), "verdict", ""},
		{"template hit", eid, session(1), "template", checker.TierTemplate},
		{"history-free allow", att, session(1), "histfree", ""},
		{"history-free hit", att, session(1), "histfree", checker.TierHistFree},
	} {
		var d checker.Decision
		got := runsDelta(reg, func() {
			d = c.Check(context.Background(), tc.sel, sqlparser.NoArgs, tc.sess, tr)
		})
		if !d.Allowed || d.Tier != tc.tier {
			t.Fatalf("%s: decision %+v, want allowed at tier %q", tc.name, d, tc.tier)
		}
		ran := true
		for i, s := range stages {
			want := int64(0)
			if ran {
				want = 1
			}
			if got[i] != want {
				t.Fatalf("%s: stage runs %v (order %v), want one run of each stage through %q", tc.name, got, stages, tc.last)
			}
			if s == tc.last {
				ran = false
			}
		}
	}
}

// TestDoneShortCircuits pins that a stage answering the decision counts
// one done and stops the table: no later stage counts a run.
func TestDoneShortCircuits(t *testing.T) {
	c, reg := newChecker(t)
	tr := attendanceTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	done, covers, verdicts := counter(reg, "template.done"), counter(reg, "cover.runs"), counter(reg, "verdict.runs")
	d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	if !d.FromCache || d.Tier != checker.TierTemplate {
		t.Fatalf("repeat must hit the template tier: %+v", d)
	}
	if got := counter(reg, "template.done"); got != done+1 {
		t.Fatalf("template.done = %d, want %d", got, done+1)
	}
	if counter(reg, "cover.runs") != covers || counter(reg, "verdict.runs") != verdicts {
		t.Fatal("stages after the answering stage must not count a run")
	}
}

// TestAbortCountsAndStops pins that a canceled decision counts one
// abort, stops at the stage that saw the cancellation, and comes back
// blocked.
func TestAbortCountsAndStops(t *testing.T) {
	c, reg := newChecker(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var d checker.Decision
	got := runsDelta(reg, func() {
		d = c.Check(ctx, sqlparser.MustParseSelect("SELECT Title FROM Events WHERE EId = 9"),
			sqlparser.NoArgs, session(1), attendanceTrace())
	})
	if d.Allowed {
		t.Fatalf("a canceled decision must block: %+v", d)
	}
	if counter(reg, "aborts") != 1 {
		t.Fatal("abort counter not incremented")
	}
	if got[0] != 1 {
		t.Fatalf("%s runs = %d, want 1", stages[0], got[0])
	}
	for i := 1; i < len(stages); i++ {
		if got[i] != 0 {
			t.Fatalf("stage runs %v: nothing may run after the abort", got)
		}
	}
}

// TestMetricsRecorded pins exact counters and sampled latency
// histograms: the first decision and every sampleEvery-th after it.
func TestMetricsRecorded(t *testing.T) {
	c, reg := newChecker(t)
	tr := attendanceTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	runs := 2 * sampleEvery
	for i := 0; i < runs; i++ {
		c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	}
	if got := counter(reg, "bind.runs"); got != int64(runs) {
		t.Fatalf("bind.runs = %d, want %d", got, runs)
	}
	for _, h := range []string{"total", "bind", "template"} {
		if got := reg.Histogram("pipeline.decide." + h + ".micros").Snapshot().Count; got != 2 {
			t.Fatalf("%s.micros count = %d, want 2 (sampled 1/%d)", h, got, sampleEvery)
		}
	}
}

// TestSpanSetRunsAlwaysTimed pins that a decision whose context carries
// a SpanSet is timed whatever the sampling tick.
func TestSpanSetRunsAlwaysTimed(t *testing.T) {
	c, reg := newChecker(t)
	tr := attendanceTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	// Burn the sampled slot so later plain decisions are counted-only.
	c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
	hist := reg.Histogram("pipeline.decide.bind.micros")
	before := hist.Snapshot().Count
	for i := 0; i < 3; i++ {
		ctx, ss := obsv.WithSpanSet(context.Background())
		c.Check(ctx, sel, sqlparser.NoArgs, session(1), tr)
		if _, ok := ss.Micros()["bind"]; !ok {
			t.Fatal("SpanSet decision must always collect stage timings")
		}
	}
	if after := hist.Snapshot().Count; after-before != 3 {
		t.Fatalf("SpanSet decisions must always hit the histogram: %d -> %d", before, after)
	}
}

// TestSpanSetReceivesStageTimings pins that a cold decision records a
// span for every stage it ran, under the stage's name.
func TestSpanSetReceivesStageTimings(t *testing.T) {
	c, _ := newChecker(t)
	ctx, ss := obsv.WithSpanSet(context.Background())
	c.Check(ctx, sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2"),
		sqlparser.NoArgs, session(1), attendanceTrace())
	m := ss.Micros()
	for _, s := range stages {
		if _, ok := m[s]; !ok {
			t.Fatalf("span set missing %s: %v", s, m)
		}
	}
}

// TestDisabledRegistryStillRuns pins that a checker with
// instrumentation off runs the same stages: decisions, early answers
// and aborts are unchanged, and nothing is recorded.
func TestDisabledRegistryStillRuns(t *testing.T) {
	reg := obsv.Disabled()
	c := checker.NewWithOptions(calendarPolicy(t), checker.Options{Metrics: reg})
	tr := attendanceTrace()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	if d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr); !d.Allowed || d.FromCache {
		t.Fatalf("cold decision: %+v", d)
	}
	if d := c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr); !d.Allowed || d.Tier != checker.TierTemplate {
		t.Fatalf("repeat must hit the template tier: %+v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if d := c.Check(ctx, sel, sqlparser.NoArgs, session(1), tr); d.Allowed {
		t.Fatalf("a canceled decision must block: %+v", d)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatal("disabled registry must snapshot empty")
	}
}

// TestConcurrentRuns pins that concurrent decisions count every stage
// run exactly.
func TestConcurrentRuns(t *testing.T) {
	c, reg := newChecker(t)
	tr := attendanceTrace()
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = 1")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Check(context.Background(), sel, sqlparser.NoArgs, session(1), tr)
			}
		}()
	}
	wg.Wait()
	if got := counter(reg, "bind.runs"); got != 1600 {
		t.Fatalf("bind.runs = %d, want 1600", got)
	}
	if got := c.Stats().Decisions; got != 1600 {
		t.Fatalf("decisions = %d, want 1600", got)
	}
}
