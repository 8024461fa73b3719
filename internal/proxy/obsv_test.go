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

// TestStatsBackedByObsv pins that the proxy's stats (both the wire
// `stats` body and the registry snapshot) come from the shared obsv
// registry: the one the checker hands out, with proxy.* instruments
// alongside checker.* ones and the latency quantiles computed by the
// obsv histogram rather than proxy-local code.
func TestStatsBackedByObsv(t *testing.T) {
	srv := testServer(t, Enforce)
	cl := dialTest(t, srv)
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId = 1"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != n {
		t.Fatalf("stats queries = %d, want %d", st.Queries, n)
	}
	if st.LatencySamples != n {
		t.Fatalf("latency samples = %d, want %d", st.LatencySamples, n)
	}
	if st.LatencyP50Micros <= 0 || st.LatencyP99Micros < st.LatencyP50Micros {
		t.Fatalf("implausible latency quantiles: %+v", st)
	}

	reg := srv.MetricsRegistry()
	if reg != srv.Checker.Metrics() {
		t.Fatal("server must default to the checker's registry")
	}
	if got := reg.Counter("proxy.queries").Value(); got != n {
		t.Fatalf("proxy.queries = %d, want %d", got, n)
	}
	if got := reg.Histogram("proxy.query.micros").Snapshot().Count; got != n {
		t.Fatalf("proxy.query.micros count = %d, want %d", got, n)
	}
	snap := reg.Snapshot()
	for _, key := range []string{
		"proxy.queries", "proxy.conns.total", "proxy.query.micros",
		"checker.decisions", "pipeline.decide.total.micros",
		"engine.queries", "engine.scan.micros",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("registry snapshot missing %q", key)
		}
	}
	if got := reg.Counter("engine.queries").Value(); got != n {
		t.Fatalf("engine.queries = %d, want %d", got, n)
	}
}

// slowRecord mirrors the slow-decision log schema (DESIGN.md §9).
type slowRecord struct {
	Event       string           `json:"event"`
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
	if recs[0].Decision != "allowed" || recs[0].SQL == "" || recs[0].TotalMicros <= 0 {
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
