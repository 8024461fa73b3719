package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlvalue"
)

// metric reads a counter of a decoded stats body.
func metric(t testing.TB, st map[string]any, name string) int64 {
	t.Helper()
	v, ok := st[name].(float64)
	if !ok {
		t.Fatalf("stats: %q is %T (%v), want a counter", name, st[name], st[name])
	}
	return int64(v)
}

// TestStatsBackedByObsv pins that the v2 `stats` body is the registry
// snapshot acproxy -metrics serves: after one read over the wire, the
// body names exactly the instruments Snapshot names, with the same
// counter values — except the two write counters, which the stats
// answer's own frame and flush step once after its snapshot is taken.
func TestStatsBackedByObsv(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId = 1"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.MetricsRegistry()
	if reg != srv.Checker.Metrics() {
		t.Fatal("server must default to the checker's registry")
	}
	snap := reg.Snapshot()
	if len(st) != len(snap) {
		t.Errorf("stats names %d instruments, the registry %d", len(st), len(snap))
	}
	for name, v := range snap {
		got, ok := st[name]
		if !ok {
			t.Errorf("stats lacks %q", name)
			continue
		}
		c, ok := v.(int64)
		if !ok {
			if h, ok := got.(map[string]any); !ok || h["count"] == nil {
				t.Errorf("stats %q = %v, want a histogram", name, got)
			}
			continue
		}
		if name == "proxy.write.frames" || name == "proxy.write.flushes" {
			c--
		}
		if metric(t, st, name) != c {
			t.Errorf("stats %q = %v, registry %d", name, got, c)
		}
	}
	for _, name := range []string{"proxy.queries", "checker.decisions", "engine.queries", "proxy.conns.active"} {
		if metric(t, st, name) != 1 {
			t.Errorf("stats %q = %v after one read on one connection, want 1", name, st[name])
		}
	}
}

// slowRecord mirrors the slow-decision log schema (DESIGN.md §9).
type slowRecord struct {
	Event       string           `json:"event"`
	RID         uint64           `json:"rid"`
	SQL         string           `json:"sql"`
	TotalMicros int64            `json:"totalMicros"`
	Decision    string           `json:"decision"`
	Tier        string           `json:"tier"`
	Reason      string           `json:"reason"`
	StageMicros map[string]int64 `json:"stageMicros"`
}

// TestSlowDecisionLog drives queries through a server whose slow-log
// threshold is zero-ish so every query qualifies, and checks the
// structured record: decision verdict, per-stage breakdown, and the
// cache tier on a repeat.
func TestSlowDecisionLog(t *testing.T) {
	srv := testServer(t, Enforce)
	var mu sync.Mutex
	var lines []string
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv.SlowLogThreshold = time.Nanosecond

	sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)})
	records := func() []slowRecord {
		mu.Lock()
		defer mu.Unlock()
		var out []slowRecord
		for _, ln := range lines {
			if !strings.Contains(ln, "slow_query") {
				continue
			}
			var rec slowRecord
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("slow-log line is not one JSON object: %q: %v", ln, err)
			}
			out = append(out, rec)
		}
		return out
	}

	// An allowed decision with a full pipeline pass.
	resp := srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}, sess)
	if !resp.OK || resp.Blocked {
		t.Fatalf("query failed: %+v", resp)
	}
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("want 1 slow record, got %d (%v)", len(recs), lines)
	}
	if recs[0].Decision != "allowed" || recs[0].RID == 0 || recs[0].SQL == "" || recs[0].TotalMicros <= 0 {
		t.Fatalf("allowed record: %+v", recs[0])
	}
	// This template is allowed with zero facts, so the pipeline stops
	// at the history-free stage; cover never runs.
	for _, stage := range []string{"bind", "histfree"} {
		if _, ok := recs[0].StageMicros[stage]; !ok {
			t.Errorf("record missing stage %q: %v", stage, recs[0].StageMicros)
		}
	}

	// The repeat answers from a cache tier and says which.
	srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}, sess)
	recs = records()
	if len(recs) != 2 {
		t.Fatalf("want 2 slow records, got %d", len(recs))
	}
	if recs[1].Tier == "" {
		t.Fatalf("repeat record must name the answering cache tier: %+v", recs[1])
	}

	// A blocked decision reports the verdict and reason.
	srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT * FROM Events WHERE EId=3"}, sess)
	recs = records()
	last := recs[len(recs)-1]
	if last.Decision != "blocked" || last.Reason == "" {
		t.Fatalf("blocked record: %+v", last)
	}
}

// TestSlowLogOffByDefault pins that with no threshold set, nothing is
// logged and no SpanSet is allocated per query.
func TestSlowLogOffByDefault(t *testing.T) {
	srv := testServer(t, Enforce)
	var mu sync.Mutex
	var lines []string
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	sess := NewSession(map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1)})
	srv.HandleInCtx(context.Background(), &Request{Op: "query", SQL: "SELECT EId FROM Attendance WHERE UId = 1"}, sess)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 0 {
		t.Fatalf("no slow log expected: %v", lines)
	}
}

// TestSlowLogSeesInlineReads: a slow log observes the production read
// path. With SlowLogThreshold set, a warm v2 read is still answered
// inline, and its slow-query line names the history-free tier.
func TestSlowLogSeesInlineReads(t *testing.T) {
	srv := testServer(t, Enforce)
	var mu sync.Mutex
	var recs []slowRecord
	srv.Logf = func(format string, args ...any) {
		var rec slowRecord
		if json.Unmarshal([]byte(fmt.Sprintf(format, args...)), &rec) == nil && rec.Event == "slow_query" {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}
	}
	srv.SlowLogThreshold = time.Nanosecond
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	const own = "SELECT EId FROM Attendance WHERE UId = 1"
	if _, err := cl.Query(ctx, own); err != nil { // cold: decided on its lane
		t.Fatal(err)
	}
	// The cold read's runner gave its lane up before its answer left, so
	// the same read, sent on receiving that answer, is warm and answered
	// inline.
	if _, err := cl.Query(ctx, own); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if srv.mInlineHits.Value() != 1 || len(recs) != 2 || recs[1].Tier != "histfree" || recs[1].Decision != "allowed" {
		t.Fatalf("inline hits %d, slow_query lines %+v; want the second read inline, one line per read, the inline read's with tier histfree",
			srv.mInlineHits.Value(), recs)
	}
}
