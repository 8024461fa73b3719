package diagnose

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/acerr"
	"repro/internal/checker"
	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// slowSearchInput builds a counterexample search that must exhaust
// every pass: a full-release view V0 makes any deletion or mutation
// visible (so no counterexample exists and no early return happens),
// the extra comparison views contribute integer boundaries that
// multiply the mutation candidates, and thousands of protected trace
// facts make each probe's view re-evaluation expensive. Uncanceled it
// runs for many seconds.
func slowSearchInput(t testing.TB) (*schema.Schema, *policy.Policy, *cq.Query, []cq.Fact) {
	t.Helper()
	s, err := schema.NewBuilder().
		Table("T").
		NotNullCol("A", sqlvalue.Int).
		NotNullCol("B", sqlvalue.Int).
		PK("A", "B").Done().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]string{"V0": "SELECT A, B FROM T"}
	for i, k := range []int64{1000, 2000, 3000, 4000, 5000, 6000, 7000} {
		views[fmt.Sprintf("V%d", i+1)] = fmt.Sprintf("SELECT A FROM T WHERE B >= %d", k)
	}
	p := policy.MustNew(s, views)
	q := cq.MustFromSQL(s,
		"SELECT t1.A FROM T t1 JOIN T t2 ON t1.B = t2.A JOIN T t3 ON t2.B = t3.A WHERE t1.A >= 100")[0]
	facts := make([]cq.Fact, 0, 2000)
	for i := int64(1); i <= 2000; i++ {
		facts = append(facts, cq.Fact{
			Atom: cq.Atom{Table: "t", Args: []cq.Term{cq.CInt(-i), cq.CInt(-i)}},
		})
	}
	return s, p, q, facts
}

func TestFindCounterexamplePreCanceled(t *testing.T) {
	// Q2 has a counterexample (TestCounterexampleForBlockedQ2), but an
	// already-canceled context must abort before the search starts.
	p := calendarPolicy(t)
	q := cq.MustFromSQL(p.Schema, "SELECT * FROM Events WHERE EId=2")[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := FindCounterexample(ctx, p.Schema, p, session(1), q, nil); ok {
		t.Fatal("canceled search must not report a counterexample")
	}
}

func TestFindCounterexampleCancelMidSearch(t *testing.T) {
	s, p, q, facts := slowSearchInput(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, ok := FindCounterexample(ctx, s, p, session(1), q, facts)
	elapsed := time.Since(start)
	if ok {
		t.Fatal("full-release view admits no counterexample")
	}
	// Uncanceled, this search runs for many seconds (hundreds of
	// probes, each re-evaluating eight views over 2000 protected
	// rows). Cancellation must cut it to roughly the cancel delay.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled search took %v; cancellation did not abort it", elapsed)
	}
	t.Logf("canceled after 30ms, search returned in %v", elapsed)
}

func TestFindCounterexampleDeadlineMidSearch(t *testing.T) {
	s, p, q, facts := slowSearchInput(t)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, ok := FindCounterexample(ctx, s, p, session(1), q, facts)
	if elapsed := time.Since(start); ok || elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the search: ok=%v elapsed=%v", ok, elapsed)
	}
}

func TestDiagnoseCanceledReturnsTypedError(t *testing.T) {
	p := calendarPolicy(t)
	chk := checker.New(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Diagnose(ctx, chk, session(1), "SELECT * FROM Events WHERE EId=2", sqlparser.NoArgs, nil)
	if err == nil {
		t.Fatal("canceled diagnosis must return an error")
	}
	if !errors.Is(err, acerr.ErrCanceled) {
		t.Fatalf("want errors.Is(err, acerr.ErrCanceled), got %v", err)
	}
}

// cancelAt is a context whose Err turns Canceled at its n-th call: a
// cancel that lands at a known check of the search, with no clock. It
// records cq.EvalSteps at that call, the calls after it, and the most
// candidate tuples tried between two calls.
type cancelAt struct {
	context.Context
	n, calls          int
	steps, last, most int64
}

func (c *cancelAt) Err() error {
	now := cq.EvalSteps()
	c.most, c.last = max(c.most, now-c.last), now
	if c.calls++; c.calls < c.n {
		return nil
	}
	if c.calls == c.n {
		c.steps = now
	}
	return context.Canceled
}

// TestFindCounterexampleCancelStepBound is the deterministic twin of
// TestFindCounterexample{Cancel,Deadline}MidSearch: a cancel lands at
// the n-th ctx check of the slow search. The search checks ctx at least
// once every 1024 candidate tuples, so at most one evaluation's block
// can run after a cancel; here none does (the evaluation in flight
// stops at the check that saw the cancel, and each evaluation after it
// refuses at its first). And it starts no further probe: a probe
// re-evaluates the query and all eight views, each of which checks ctx
// once. A search that ran one more block, or one more probe, fails it,
// however fast the box.
func TestFindCounterexampleCancelStepBound(t *testing.T) {
	s, p, q, facts := slowSearchInput(t)
	for _, n := range []int{1, 2, 10, 100, 400} {
		start := cq.EvalSteps()
		ctx := &cancelAt{Context: context.Background(), n: n, last: start}
		if _, ok := FindCounterexample(ctx, s, p, session(1), q, facts); ok {
			t.Fatal("full-release view admits no counterexample")
		}
		if ctx.calls < n {
			t.Fatalf("cancel at check %d: the search returned after %d checks", n, ctx.calls)
		}
		if ctx.most > 1024 {
			t.Errorf("cancel at check %d: %d candidate tuples tried between two ctx checks, want at most 1024", n, ctx.most)
		}
		if after := cq.EvalSteps() - ctx.steps; after != 0 {
			t.Errorf("cancel at check %d (after %d steps): %d candidate tuples tried after the cancel, want 0", n, ctx.steps-start, after)
		}
		if after := ctx.calls - n; after > 12 {
			t.Errorf("cancel at check %d: %d ctx checks after the cancel; a further probe makes at least 9", n, after)
		}
	}
}
