package main

// The -coldpath sweep: cold-decision latency vs policy size, for the
// two cold-path configurations — the linear scan over every view
// (ColdIndex off) and the compiled search (ColdIndex on: discrimination
// index plus match programs). The workload is a synthetic wide schema
// (16 relations) whose policy spreads views evenly across relations and
// pins a distinct K per view, so the index hands each arm of the 4-arm
// UNION query its one covering view. Caching is disabled: every check
// takes the cold path.

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/checker"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

type coldpathRow struct {
	Views          int     `json:"views"`
	SerialMicros   float64 `json:"serialMicros"`
	IndexedMicros  float64 `json:"indexedMicros"`
	IndexedSpeedup float64 `json:"indexedSpeedup"`
	PruneRatio     float64 `json:"pruneRatio"`
}

// coldpathTables is how many relations the synthetic schema spreads
// its policy over.
const coldpathTables = 16

func coldpathSchema() *schema.Schema {
	b := schema.NewBuilder()
	for i := 0; i < coldpathTables; i++ {
		b = b.Table(fmt.Sprintf("R%d", i)).
			NotNullCol("Id", sqlvalue.Int).
			NotNullCol("Owner", sqlvalue.Int).
			NotNullCol("Val", sqlvalue.Int).
			NotNullCol("K", sqlvalue.Int).
			PK("Id").Done()
	}
	return b.MustBuild()
}

// coldpathPolicy builds n views cycling over the relations; view j
// exposes rows of R(j mod 16) the principal owns with K = j, so
// exactly one view covers each query arm and every other view over
// the same relation fails its embedding on the pinned K.
func coldpathPolicy(s *schema.Schema, n int) *policy.Policy {
	views := make(map[string]string, n)
	for j := 0; j < n; j++ {
		views[fmt.Sprintf("V%03d", j)] = fmt.Sprintf(
			"SELECT Id, Val FROM R%d WHERE Owner = ?MyUId AND K = %d", j%coldpathTables, j)
	}
	return policy.MustNew(s, views)
}

// coldpathQuery is a 4-arm UNION (one disjunct per arm) over R0..R3,
// each arm covered by exactly one policy view; the Id range predicate
// keeps the disjuncts' constraint sets non-trivial.
func coldpathQuery() *sqlparser.SelectStmt {
	sql := ""
	for i := 0; i < 4; i++ {
		if i > 0 {
			sql += " UNION "
		}
		sql += fmt.Sprintf("SELECT Id, Val FROM R%d WHERE Owner = ?MyUId AND K = %d AND Id >= 10", i, i)
	}
	return sqlparser.MustParseSelect(sql)
}

func coldpathChecker(p *policy.Policy, index bool) *checker.Checker {
	opts := checker.DefaultOptions()
	opts.UseCache = false // every check is a cold decision
	opts.ColdIndex = index
	return checker.NewWithOptions(p, opts)
}

// runColdPath measures the cold-decision sweep and checks that both
// configurations return identical Decisions at every size.
func runColdPath() ([]coldpathRow, error) {
	s := coldpathSchema()
	sel := coldpathQuery()
	// The uid must not collide with any K constant: template
	// generalization folds constants equal to a session attribute into
	// that parameter, which would change the query's meaning here.
	sess := map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(1_000_001)}
	ctx := context.Background()

	const (
		iters  = 20
		trials = 5
	)
	measure := func(c *checker.Checker) float64 {
		c.Check(ctx, sel, sqlparser.NoArgs, sess, nil) // warm allocator paths
		best := time.Duration(1 << 62)
		for t := 0; t < trials; t++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				c.Check(ctx, sel, sqlparser.NoArgs, sess, nil)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / 1e3 / iters
	}

	var rows []coldpathRow
	for _, n := range []int{8, 32, 128, 512} {
		p := coldpathPolicy(s, n)
		serial := coldpathChecker(p, false)
		indexed := coldpathChecker(p, true)

		// The acceptance bar: the two configurations must agree exactly
		// before either is worth timing.
		dS := serial.Check(ctx, sel, sqlparser.NoArgs, sess, nil)
		dI := indexed.Check(ctx, sel, sqlparser.NoArgs, sess, nil)
		if !reflect.DeepEqual(dS, dI) {
			return nil, fmt.Errorf("coldpath: decision mismatch at %d views: serial=%+v indexed=%+v", n, dS, dI)
		}
		if !dS.Allowed {
			return nil, fmt.Errorf("coldpath: expected allowed decision at %d views, got %q", n, dS.Reason)
		}

		row := coldpathRow{
			Views:         n,
			SerialMicros:  measure(serial),
			IndexedMicros: measure(indexed),
		}
		row.IndexedSpeedup = row.SerialMicros / row.IndexedMicros
		cs := indexed.Stats()
		if tot := cs.ColdViewsKept + cs.ColdViewsPruned; tot > 0 {
			row.PruneRatio = float64(cs.ColdViewsPruned) / float64(tot)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printColdPath() error {
	rows, err := runColdPath()
	if err != nil {
		return err
	}
	fmt.Println("Cold path: per-decision latency vs policy size (caching off; 16 relations, 4-arm UNION query)")
	fmt.Print("serial = linear view scan, indexed = compiled search (discrimination index + match programs)\n\n")
	fmt.Printf("%-8s %12s %12s %10s %8s\n", "views", "serial", "indexed", "idx-spdup", "pruned")
	for _, r := range rows {
		fmt.Printf("%-8d %11.1fµs %11.1fµs %9.1fx %7.0f%%\n",
			r.Views, r.SerialMicros, r.IndexedMicros, r.IndexedSpeedup, r.PruneRatio*100)
	}
	fmt.Println()
	return nil
}
