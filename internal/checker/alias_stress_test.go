package checker

import (
	"context"
	"sync"
	"testing"

	"repro/internal/sqlparser"
)

// TestDecisionAliasStress is the pooled-state aliasing audit as a
// test. decide() recycles its scratch state through a sync.Pool and
// the warm caches hand back Decisions by value, so two invariants
// must hold under concurrency:
//
//  1. A Decision from the safe API (Check/CheckSQL) owns its Views
//     slice outright — callers may overwrite or append to it while
//     other goroutines hit the same cache entries and the pool
//     recycles scratch underneath.
//  2. No amount of such mutation may leak back into the caches: later
//     hits must see the pristine view list.
//
// Run under -race (make ci does), this also catches any scratch slice
// that escaped into a cached Decision: the mutating writes here would
// race with the pool's next user.
func TestDecisionAliasStress(t *testing.T) {
	c, tr := warmChecker(t)
	ctx := context.Background()
	const factSQL = "SELECT * FROM Events WHERE EId=2"

	// Baselines: the pristine view lists for a histfree-tier and a
	// template-tier decision.
	hf, err := c.CheckSQL(ctx, warmSQL, sqlparser.PositionalArgs(1), session(1), tr)
	if err != nil || !hf.Allowed {
		t.Fatalf("histfree prime: %+v %v", hf, err)
	}
	tmpl, err := c.CheckSQL(ctx, factSQL, sqlparser.NoArgs, session(1), tr)
	if err != nil || !tmpl.Allowed {
		t.Fatalf("template prime: %+v %v", tmpl, err)
	}
	wantHF := append([]string(nil), hf.Views...)
	wantTmpl := append([]string(nil), tmpl.Views...)
	if len(wantHF) == 0 || len(wantTmpl) == 0 {
		t.Fatalf("primes must cover through views: histfree=%v tmpl=%v", wantHF, wantTmpl)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	// Mutators: hammer the warm tiers through the safe API and deface
	// every returned Decision.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			args := sqlparser.PositionalArgs(1)
			sess := session(1)
			for i := 0; i < 1500; i++ {
				sql := warmSQL
				if i%2 == g%2 {
					sql = factSQL
					args = sqlparser.NoArgs
				} else {
					args = sqlparser.PositionalArgs(1)
				}
				d, err := c.CheckSQL(ctx, sql, args, sess, tr)
				if err != nil || !d.Allowed {
					report("mutator: check failed")
					return
				}
				for j := range d.Views {
					d.Views[j] = "DEFACED"
				}
				d.Views = append(d.Views, "EXTRA")
				d.Reason = "DEFACED"
			}
		}(g)
	}
	// Churners: fresh principals force full decide runs, recycling
	// pooled decideState concurrently with the mutators above.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				uid := int64(1000 + g*1000 + i)
				d, err := c.CheckSQL(ctx, warmSQL, sqlparser.PositionalArgs(uid), session(uid), tr)
				if err != nil || !d.Allowed {
					report("churner: check failed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// After all that defacing, fresh hits must return pristine views.
	for _, tc := range []struct {
		sql  string
		args sqlparser.Args
		want []string
	}{
		{warmSQL, sqlparser.PositionalArgs(1), wantHF},
		{factSQL, sqlparser.NoArgs, wantTmpl},
	} {
		d, err := c.CheckSQL(ctx, tc.sql, tc.args, session(1), tr)
		if err != nil || !d.Allowed {
			t.Fatalf("post-stress %s: %+v %v", tc.sql, d, err)
		}
		if len(d.Views) != len(tc.want) {
			t.Fatalf("post-stress %s: views %v, want %v", tc.sql, d.Views, tc.want)
		}
		for i := range d.Views {
			if d.Views[i] != tc.want[i] {
				t.Fatalf("cache poisoned by caller mutation: %s views %v, want %v", tc.sql, d.Views, tc.want)
			}
		}
	}
}
