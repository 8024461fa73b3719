// Command acextract runs policy extraction (§3) on a bundled model
// application and prints the draft policy plus its accuracy against
// the app-embodied ground truth.
//
// Usage:
//
//	acextract -app calendar -mode symbolic
//	acextract -app calendar -mode mine           # auto-explored inputs
//	acextract -app calendar -mode mine -explore=false
//
// -timing appends an obsv metrics snapshot with the extraction's
// wall-clock time (extract.micros).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	beyond "repro"
	"repro/internal/appdsl"
	"repro/internal/buildinfo"
	"repro/internal/extract"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

func main() {
	app := flag.String("app", "calendar", "fixture: calendar|hospital|employees|forum")
	mode := flag.String("mode", "symbolic", "symbolic|mine")
	hints := flag.Bool("hints", true, "use opaque-ID hints (mine mode)")
	guards := flag.Bool("guards", true, "infer access-check guards (mine mode)")
	explore := flag.Bool("explore", true, "auto-generate request inputs (mine mode)")
	timing := flag.Bool("timing", false, "print the phase-timing metrics snapshot (JSON)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("acextract"))
		return
	}

	f, err := beyond.FixtureByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	reg := beyond.NewMetrics()
	extractStart := time.Now()
	var p *beyond.Policy
	switch *mode {
	case "symbolic":
		p, err = beyond.ExtractPolicy(f.Schema, f.App)
	case "mine":
		if *explore {
			db := f.MustNewDB(12)
			opts := extract.DefaultMineOptions()
			opts.SessionParam = f.SessionParam
			opts.UseHints = *hints
			opts.InferGuards = *guards
			p, err = extract.ExploreAndMine(f.Schema, f.App, db, opts)
		} else {
			p, err = mine(f, *hints, *guards)
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	reg.Histogram("acextract.extract.micros").ObserveSince(extractStart)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted policy (%s):\n%s\n", *mode, p)
	acc := beyond.CompareExtraction(p, f.AppTruth())
	fmt.Printf("accuracy vs app-embodied ground truth: recall %.2f, precision %.2f, exact=%v\n",
		acc.Recall(), acc.Precision(), acc.Exact())
	if *timing {
		fmt.Println("\nmetrics:")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

// mine runs every handler for two principals and mines the traces.
func mine(f *beyond.Fixture, hints, guards bool) (*beyond.Policy, error) {
	db := f.MustNewDB(12)
	var samples []extract.Sample
	for _, uid := range []int64{1, 2} {
		for _, h := range f.App.Handlers {
			params := map[string]sqlvalue.Value{}
			for _, p := range h.Params {
				// A crude request generator: pick an entity the
				// principal can access by probing small ids.
				params[p] = sqlvalue.NewInt(uid + 1)
			}
			var entries []extract.MinedEntry
			runner := appdsl.RunnerFunc(func(sql string, args []sqlvalue.Value) (*appdsl.Rows, error) {
				res, err := db.QuerySQL(sql, sqlparser.Args{Positional: args})
				if err != nil {
					return nil, err
				}
				entries = append(entries, extract.MinedEntry{SQL: sql, Args: args, Columns: res.Columns, Rows: res.Rows})
				return &appdsl.Rows{Columns: res.Columns, Rows: res.Rows}, nil
			})
			_, err := appdsl.Run(h, params,
				map[string]sqlvalue.Value{"user_id": sqlvalue.NewInt(uid)}, runner)
			if err != nil {
				if _, aborted := err.(*appdsl.AbortError); !aborted {
					return nil, err
				}
			}
			samples = append(samples, extract.Sample{
				Handler: h.Name,
				Session: map[string]sqlvalue.Value{"user_id": sqlvalue.NewInt(uid)},
				Params:  params,
				Entries: entries,
			})
		}
	}
	opts := extract.DefaultMineOptions()
	opts.SessionParam = f.SessionParam
	opts.UseHints = hints
	opts.InferGuards = guards
	return beyond.MinePolicy(f.Schema, samples, opts)
}
