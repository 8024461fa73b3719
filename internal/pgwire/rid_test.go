package pgwire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
)

// logRecord is what the slow-log and shadow-diff lines have in common.
type logRecord struct {
	Event string `json:"event"`
	RID   uint64 `json:"rid"`
	Tier  string `json:"tier"`
}

// TestRequestIDJoinsArtifacts: one statement's request id names it in
// every artifact the proxy emits for it. A pgwire read the active
// policy blocks and a staged candidate allows, under a slow log, gets an
// ErrorResponse whose Detail, a shadow_diff line, a policy.diff record
// and a slow-query line that name one id. Ids are minted once per
// statement, in order, across both ingresses: the slow log's ids are
// consecutive, and a v2 read that falls back from the inline path to its
// lane keeps the id minted at dispatch.
func TestRequestIDJoinsArtifacts(t *testing.T) {
	px := testProxy(t, proxy.Enforce)
	var mu sync.Mutex
	var recs []logRecord
	px.Logf = func(format string, args ...any) {
		var r logRecord
		if json.Unmarshal([]byte(fmt.Sprintf(format, args...)), &r) == nil && r.Event != "" {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		}
	}
	px.SlowLogThreshold = time.Nanosecond
	pgAddr := listen(t, px)
	v2Addr, err := px.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	events := func(event string) (out []logRecord) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if r.Event == event {
				out = append(out, r)
			}
		}
		return out
	}

	if _, err := px.StagePolicy(map[string]string{"VAll": "SELECT * FROM Events"}); err != nil {
		t.Fatal(err)
	}
	pc := dialPg(t, pgAddr, map[string]string{"attr.MyUId": "1"})
	f := wantSQLState(t, pc.query("SELECT * FROM Events WHERE EId = 3"), "42501")
	var rid uint64
	if _, err := fmt.Sscanf(f['D'], "request %d", &rid); err != nil || rid == 0 {
		t.Fatalf("ErrorResponse detail %q, want \"request <rid>\"", f['D'])
	}
	if d := events("shadow_diff"); len(d) != 1 || d[0].RID != rid {
		t.Fatalf("shadow_diff lines %+v, want one naming request %d", d, rid)
	}
	if d, _ := px.ShadowDiffs(0); len(d) != 1 || d[0].RID != rid {
		t.Fatalf("policy.diff records %+v, want one naming request %d", d, rid)
	}
	if s := events("slow_query"); len(s) != 1 || s[0].RID != rid {
		t.Fatalf("slow_query lines %+v, want one naming request %d", s, rid)
	}

	// Without a candidate, warm v2 reads are answered inline.
	if _, err := px.RollbackPolicy(); err != nil {
		t.Fatal(err)
	}
	cl, err := proxy.Dial(v2Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	reg := px.MetricsRegistry()
	hits, bypass := reg.Counter("proxy.inline.hits"), reg.Counter("proxy.inline.bypass")
	// A lane runner writes its answer before it gives the lane up, so a
	// read sent on the heels of an answer can find its lane still held
	// and queue behind the runner with no inline attempt. read so pauses
	// first, and the loops below retry until the path they want is taken.
	read := func(sql string) {
		t.Helper()
		time.Sleep(time.Millisecond)
		if _, err := cl.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	// A cold read bypasses the inline path and its lane decides it; each
	// text is cold once.
	var own string
	for _, sql := range []string{
		"SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT UId FROM Attendance WHERE UId = 1",
		"SELECT UId, EId FROM Attendance WHERE UId = 1",
	} {
		if read(sql); bypass.Value() == 1 {
			own = sql
			break
		}
	}
	if own == "" || hits.Value() != 0 {
		t.Fatalf("cold v2 reads: inline bypass %d, hits %d; want 1, 0", bypass.Value(), hits.Value())
	}
	// The same text again is warm, and answered inline.
	for i := 0; hits.Value() == 0; i++ {
		if i == 100 {
			t.Fatalf("no warm v2 read of %q was answered inline in %d tries", own, i)
		}
		read(own)
	}
	if hits.Value() != 1 || bypass.Value() != 1 {
		t.Fatalf("inline hits %d, bypass %d; want 1, 1", hits.Value(), bypass.Value())
	}
	inline := len(events("slow_query")) - 1
	wantRowsOK(t, pc.query(own))
	if _, err := cl.Query(ctx, "SELECT * FROM Events WHERE EId = 3"); !errors.Is(err, proxy.ErrBlocked) {
		t.Fatalf("v2 blocked read: %v", err)
	}

	s := events("slow_query")
	if len(s) != inline+3 {
		t.Fatalf("slow_query lines %+v, want one per statement", s)
	}
	for i, r := range s {
		if r.RID != rid+uint64(i) {
			t.Errorf("slow_query line %d names request %d, want %d (one id per statement, in order): %+v", i, r.RID, rid+uint64(i), s)
		}
	}
	if s[inline].Tier != "histfree" {
		t.Errorf("the inline read's slow_query line has tier %q, want histfree", s[inline].Tier)
	}
}

// wantRowsOK fails unless msgs answer a read with rows.
func wantRowsOK(t *testing.T, msgs []backendMsg) {
	t.Helper()
	if e := findMsg(msgs, 'E'); e != nil || countMsgs(msgs, 'D') == 0 {
		t.Fatalf("read failed or returned no rows: %s", strings.TrimSpace(msgTypes(msgs)))
	}
}
