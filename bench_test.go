package beyond_test

// One benchmark per evaluation table/figure (DESIGN.md §4). The
// experiment harness in internal/experiments prints the tables; these
// testing.B benches give calibrated per-operation numbers for the same
// code paths, and bench_output.txt records a full run.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	beyond "repro"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/checker"
	"repro/internal/diagnose"
	"repro/internal/disclosure"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// BenchmarkE1Decisions measures the full decision matrix of Table 1:
// every corpus query of every fixture, checked once per iteration.
func BenchmarkE1Decisions(b *testing.B) {
	type prepared struct {
		chk  *checker.Checker
		f    *apps.Fixture
		sels []*sqlparser.SelectStmt
		args []sqlparser.Args
		uids []int64
	}
	var ps []prepared
	for _, f := range apps.All() {
		p := prepared{chk: checker.New(f.Policy()), f: f}
		for _, w := range f.Corpus {
			p.sels = append(p.sels, sqlparser.MustParseSelect(w.SQL))
			p.args = append(p.args, sqlparser.PositionalArgs(w.Args...))
			p.uids = append(p.uids, w.UId)
		}
		ps = append(ps, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			for k, sel := range p.sels {
				p.chk.Check(context.Background(), sel, p.args[k], p.f.Session(p.uids[k]), nil)
			}
		}
	}
}

// BenchmarkE2Latency is Figure 1: per-query cost under each proxy
// configuration.
func BenchmarkE2Latency(b *testing.B) {
	f := apps.Calendar()
	db := f.MustNewDB(64)
	w := f.Corpus[0]
	sel := sqlparser.MustParseSelect(w.SQL)
	argv := sqlparser.PositionalArgs(w.Args...)
	sess := f.Session(w.UId)
	bound, err := sqlparser.Bind(sel, argv)
	if err != nil {
		b.Fatal(err)
	}
	bsel := bound.(*sqlparser.SelectStmt)

	b.Run("passthrough", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(bsel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checker-cold", func(b *testing.B) {
		opts := checker.DefaultOptions()
		opts.UseCache = false
		chk := checker.NewWithOptions(f.Policy(), opts)
		for i := 0; i < b.N; i++ {
			chk.Check(context.Background(), sel, argv, sess, nil)
			if _, err := db.Query(bsel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checker-cached", func(b *testing.B) {
		chk := checker.New(f.Policy())
		chk.Check(context.Background(), sel, argv, sess, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chk.Check(context.Background(), sel, argv, sess, nil)
			if _, err := db.Query(bsel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rls-rewrite", func(b *testing.B) {
		rls := baseline.MustNewRLS(f.Schema, f.RLSRules)
		for i := 0; i < b.N; i++ {
			rw, err := rls.Rewrite(sel, sess)
			if err != nil {
				b.Fatal(err)
			}
			rb, err := sqlparser.Bind(rw, argv)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Query(rb.(*sqlparser.SelectStmt)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3Cache is Table 2's mechanism: the cost of a decision that
// hits the template cache vs one that misses, across principals.
func BenchmarkE3Cache(b *testing.B) {
	f := apps.Calendar()
	chk := checker.New(f.Policy())
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ?")
	b.Run("cross-principal-hit", func(b *testing.B) {
		chk.Check(context.Background(), sel, sqlparser.PositionalArgs(1), f.Session(1), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uid := int64(i%100 + 1)
			chk.Check(context.Background(), sel, sqlparser.PositionalArgs(uid), f.Session(uid), nil)
		}
	})
	b.Run("miss", func(b *testing.B) {
		opts := checker.DefaultOptions()
		opts.UseCache = false
		cold := checker.NewWithOptions(f.Policy(), opts)
		for i := 0; i < b.N; i++ {
			cold.Check(context.Background(), sel, sqlparser.PositionalArgs(1), f.Session(1), nil)
		}
	})
}

// BenchmarkE4Extract is Table 3: one full extraction per iteration.
func BenchmarkE4Extract(b *testing.B) {
	for _, f := range apps.All() {
		f := f
		b.Run("symbolic-"+f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := extract.SymbolicExtract(f.Schema, f.App); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Generalize is Figure 2's full configuration: black-box
// mining of the calendar app.
func BenchmarkE5Generalize(b *testing.B) {
	if _, err := experiments.RunE5(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Disclosure is Table 4: the PQI/NQI audit per fixture.
func BenchmarkE6Disclosure(b *testing.B) {
	for _, f := range apps.All() {
		f := f
		pol := f.Policy()
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := disclosure.Audit(context.Background(), pol, f.Sensitive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Scaling is Figure 3: PQI/NQI checking time vs policy
// size.
func BenchmarkE7Scaling(b *testing.B) {
	f := apps.Employees()
	sensitive := "SELECT Name, Salary FROM Employees"
	for _, nviews := range []int{1, 2, 4, 8, 16} {
		pol := experiments.SyntheticPolicy(f, nviews)
		b.Run(benchName("views", nviews), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := disclosure.PQISQL(pol, sensitive); err != nil {
					b.Fatal(err)
				}
				if _, err := disclosure.NQISQL(pol, sensitive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Diagnose is Table 5: one full diagnosis of the paper's
// blocked query per iteration.
func BenchmarkE8Diagnose(b *testing.B) {
	f := apps.Calendar()
	chk := checker.New(f.Policy())
	sess := f.Session(1)
	for i := 0; i < b.N; i++ {
		d, err := diagnose.Diagnose(context.Background(), chk, sess, "SELECT * FROM Events WHERE EId=2", sqlparser.NoArgs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if d.Counter == nil || len(d.Checks) == 0 {
			b.Fatal("diagnosis incomplete")
		}
	}
}

// BenchmarkProxyRoundTrip measures the end-to-end wire path: hello +
// query over loopback TCP.
func BenchmarkProxyRoundTrip(b *testing.B) {
	f := apps.Calendar()
	db := f.MustNewDB(32)
	svc, err := beyond.Serve(db, checker.New(f.Policy()), beyond.Enforce, beyond.WithV2Listener("127.0.0.1:0"))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	cl, err := beyond.DialProxy(svc.V2Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(context.Background(), map[string]any{"MyUId": 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(context.Background(), "SELECT EId FROM Attendance WHERE UId = ?", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// longTrace builds an n-entry session history of allowed point
// lookups, the shape a real application session accumulates.
func longTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i+2)
		st := sqlparser.MustParseSelect(sql)
		tr.Append(trace.Entry{
			SQL: sql, Stmt: st, Args: sqlparser.NoArgs,
			Columns: []string{"1"},
			Rows:    [][]sqlvalue.Value{{sqlvalue.NewInt(1)}},
		})
	}
	return tr
}

// BenchmarkCheckLongTrace is the enforcement hot path on a long
// session history (200 entries): the trace derived each entry's facts
// once, and the checker's generalization memo holds them per session.
func BenchmarkCheckLongTrace(b *testing.B) {
	f := apps.Calendar()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	sess := f.Session(1)
	chk := checker.New(f.Policy())
	tr := longTrace(200)
	chk.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr) // warm caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chk.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
	}
}

// BenchmarkCheckLongTraceGrowing measures the whole-session cost: one
// iteration appends an entry and re-checks, so per-op cost reflects
// the amortized incremental derivation rather than a fully warm cache.
func BenchmarkCheckLongTraceGrowing(b *testing.B) {
	f := apps.Calendar()
	sel := sqlparser.MustParseSelect("SELECT * FROM Events WHERE EId=2")
	sess := f.Session(1)
	chk := checker.New(f.Policy())
	tr := longTrace(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i+1000)
		st := sqlparser.MustParseSelect(sql)
		tr.Append(trace.Entry{SQL: sql, Stmt: st, Args: sqlparser.NoArgs,
			Columns: []string{"1"}, Rows: [][]sqlvalue.Value{{sqlvalue.NewInt(1)}}})
		chk.Check(context.Background(), sel, sqlparser.NoArgs, sess, tr)
	}
}

// BenchmarkCheckParallelPrincipals hammers one checker from all procs
// with per-principal sessions on a warm template: the sharded decision
// cache keeps concurrent hits from serializing on a single mutex.
func BenchmarkCheckParallelPrincipals(b *testing.B) {
	f := apps.Calendar()
	chk := checker.New(f.Policy())
	sel := sqlparser.MustParseSelect("SELECT EId FROM Attendance WHERE UId = ?")
	chk.Check(context.Background(), sel, sqlparser.PositionalArgs(1), f.Session(1), nil) // warm template
	var uid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := uid.Add(1)
		sess := f.Session(me)
		args := sqlparser.PositionalArgs(me)
		for pb.Next() {
			chk.Check(context.Background(), sel, args, sess, nil)
		}
	})
}

func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "-" + digits
}
