package checker

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// TestParallelCheck drives one checker from many goroutines over a
// mix of principals, shapes, and a shared history; run under -race.
func TestParallelCheck(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})

	shapes := []string{
		"SELECT EId FROM Attendance WHERE UId = %d",
		"SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = %d",
		"SELECT * FROM Attendance", // blocked
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(uid int64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := shapes[i%len(shapes)]
				if i%len(shapes) != 2 {
					sql = fmt.Sprintf(sql, uid)
				}
				d, err := c.CheckSQL(context.Background(), sql, sqlparser.NoArgs, session(uid), tr)
				if err != nil {
					errs <- err
					return
				}
				wantAllowed := i%len(shapes) != 2
				if d.Allowed != wantAllowed {
					errs <- fmt.Errorf("uid %d, %q: allowed=%v want %v (%s)", uid, sql, d.Allowed, wantAllowed, d.Reason)
					return
				}
			}
		}(int64(g%4 + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Decisions != 8*50 {
		t.Errorf("decisions: %+v", st)
	}
}

// TestResetCacheConcurrentWithCheck is the -race regression for the
// snapshot race: ResetCache republishes the view disjuncts while
// decisions read them. Before the atomic snapshot, decide and
// coverDisjunct read c.viewDisj unlocked against ResetCache's write.
func TestResetCacheConcurrentWithCheck(t *testing.T) {
	p := calendarPolicy(t)
	c := New(p)
	stop := make(chan struct{})
	var resetter, checkers sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.ResetCache()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		checkers.Add(1)
		go func(uid int64) {
			defer checkers.Done()
			for i := 0; i < 200; i++ {
				d, err := c.CheckSQL(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?",
					sqlparser.PositionalArgs(uid), session(uid), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !d.Allowed {
					t.Errorf("own attendance must stay allowed across resets: %s", d.Reason)
					return
				}
			}
		}(int64(g + 1))
	}
	checkers.Wait()
	close(stop)
	resetter.Wait()
}

// TestCachedDecisionViewsNotAliased: mutating the Views slice of a
// returned decision must not corrupt the cached template for later
// principals (the cache previously returned its backing array).
func TestCachedDecisionViewsNotAliased(t *testing.T) {
	c := New(calendarPolicy(t))
	d1 := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 1", session(1), nil)
	if len(d1.Views) != 1 || d1.Views[0] != "V1" {
		t.Fatalf("first decision views: %v", d1.Views)
	}
	d1.Views[0] = "CORRUPTED"

	d2 := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 2", session(2), nil)
	if d2.Tier == "" {
		t.Fatal("expected a template cache hit")
	}
	if len(d2.Views) != 1 || d2.Views[0] != "V1" {
		t.Fatalf("cached views corrupted by earlier caller: %v", d2.Views)
	}
	// And a hit's slice is private too.
	d2.Views[0] = "ALSO CORRUPTED"
	d3 := mustCheck(t, c, "SELECT EId FROM Attendance WHERE UId = 3", session(3), nil)
	if d3.Views[0] != "V1" {
		t.Fatalf("cache hit aliased its backing array: %v", d3.Views)
	}
}

// TestDecisionCacheBounded: the template cache must not grow past its
// configured size.
func TestDecisionCacheBounded(t *testing.T) {
	var opts Options
	opts.CacheSize = 32
	c := NewWithOptions(calendarPolicy(t), opts)
	for i := 0; i < 500; i++ {
		// Distinct constants produce distinct templates (no session
		// attribute matches them, so they are not generalized away).
		mustCheck(t, c, fmt.Sprintf("SELECT EId FROM Attendance WHERE UId = 1 AND EId = %d", i), session(1), nil)
	}
	st := c.Stats()
	if st.CacheEntries > 32 {
		t.Errorf("cache grew past its bound: %d entries", st.CacheEntries)
	}
	if st.CacheEntries == 0 {
		t.Error("cache unexpectedly empty")
	}
}

// TestDecisionCacheLRUKeepsHotEntry: with heavy reuse of one shape,
// the hot template should survive eviction pressure.
func TestDecisionCacheLRUKeepsHotEntry(t *testing.T) {
	var opts Options
	opts.CacheSize = 64
	c := NewWithOptions(calendarPolicy(t), opts)
	hot := "SELECT EId FROM Attendance WHERE UId = 1"
	mustCheck(t, c, hot, session(1), nil)
	for i := 0; i < 300; i++ {
		mustCheck(t, c, hot, session(1), nil) // keep it recent
		mustCheck(t, c, fmt.Sprintf("SELECT EId FROM Attendance WHERE UId = 1 AND EId = %d", i), session(1), nil)
	}
	d := mustCheck(t, c, hot, session(1), nil)
	if d.Tier == "" {
		t.Error("hot template should have survived sampled-LRU eviction")
	}
}

// TestFactGeneralizationMemo: repeated checks over the same history
// and principal must hit the generalization memo, and different
// principals must not share entries.
func TestFactGeneralizationMemo(t *testing.T) {
	c := New(calendarPolicy(t))
	tr := &trace.Trace{}
	q1 := sqlparser.MustParseSelect("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2")
	tr.Append(trace.Entry{
		SQL: q1.SQL(), Stmt: q1, Args: sqlparser.NoArgs,
		Columns: []string{"1"},
		Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
	})
	mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	st1 := c.Stats()
	if st1.FactGenMisses == 0 {
		t.Fatal("first check should compute generalizations")
	}
	mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(1), tr)
	st2 := c.Stats()
	if st2.FactGenHits <= st1.FactGenHits {
		t.Error("second check over same history should hit the memo")
	}
	if st2.FactGenMisses != st1.FactGenMisses {
		t.Error("second check should not recompute generalizations")
	}
	// New principal: the same ground fact generalizes differently.
	mustCheck(t, c, "SELECT * FROM Events WHERE EId=2", session(2), tr)
	st3 := c.Stats()
	if st3.FactGenMisses <= st2.FactGenMisses {
		t.Error("a different principal must not reuse another's generalizations")
	}
}

// TestHotPathSemanticsMatchAblation: decisions over the trace's memoized
// facts must equal decisions over the reference derivation from scratch
// (facts_ref_test.go) across a grown history — Example 2.1 included, in
// an unbounded trace and in a window that evicts facts the decisions
// rest on.
func TestHotPathSemanticsMatchAblation(t *testing.T) {
	p := calendarPolicy(t)
	queries := []string{
		"SELECT * FROM Events WHERE EId=2", // blocked until history covers it
		"SELECT * FROM Events WHERE EId=7",
		"SELECT EId FROM Attendance WHERE UId = 1",
		"SELECT * FROM Attendance",
	}
	for _, window := range []int{0, 4} {
		fast, ref := New(p), newRefFactsChecker(p)
		tr := &trace.Trace{}
		tr.SetWindow(window)
		for i := 0; i < 20; i++ {
			sql := fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i%8+2)
			st := sqlparser.MustParseSelect(sql)
			tr.Append(trace.Entry{SQL: sql, Stmt: st, Args: sqlparser.NoArgs,
				Columns: []string{"1"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}}})
			for _, q := range queries {
				df := mustCheck(t, fast, q, session(1), tr)
				dr := mustCheck(t, ref, q, session(1), tr)
				if df.Allowed != dr.Allowed || df.Reason != dr.Reason || fmt.Sprint(df.Views) != fmt.Sprint(dr.Views) {
					t.Fatalf("window %d, iteration %d, %q:\nmemoized:  %+v\nreference: %+v", window, i, q, df, dr)
				}
			}
		}
	}
}
