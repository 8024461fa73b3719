package extract

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/appdsl"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Explorer implements §3.2.2's coverage step for black-box extraction:
// when no test suite exists, it generates inputs itself. For each
// handler and principal it proposes request-parameter values drawn
// from the database's key columns (plus a miss value), runs the
// handler, and keeps going until the mined policy stops changing —
// a simple active-learning loop in the spirit of the paper's
// test-generation references.
type Explorer struct {
	Schema *schema.Schema
	App    *appdsl.App
	DB     *engine.DB
	// Principals to run as (session attribute "user_id").
	Principals []int64
	// MaxValuesPerParam bounds candidate values per request parameter.
	MaxValuesPerParam int
	// Options passed to the miner on each round.
	Options MineOptions
}

// Explore runs the loop and returns the stabilized policy together
// with the samples that produced it.
func (e *Explorer) Explore() (*policy.Policy, []Sample, error) {
	if e.MaxValuesPerParam <= 0 {
		e.MaxValuesPerParam = 6
	}
	if len(e.Principals) == 0 {
		e.Principals = []int64{1, 2}
	}
	candidates := e.candidateValues()

	var samples []Sample
	var lastFP string
	stable := 0
	var pol *policy.Policy
	// Each round widens the candidate pool by one value per parameter
	// and runs every handler on every combination; stop once the mined
	// policy's fingerprint has been stable for two consecutive
	// widenings (one quiet round can be coincidence — e.g. a round
	// that only adds entities the principal cannot access).
	for round := 1; round <= e.MaxValuesPerParam+1; round++ {
		samples = samples[:0]
		for _, uid := range e.Principals {
			for _, h := range e.App.Handlers {
				for _, params := range paramCombos(h.Params, candidates, round) {
					sm, err := e.runOnce(h, uid, params)
					if err != nil {
						return nil, nil, err
					}
					if sm != nil {
						samples = append(samples, *sm)
					}
				}
			}
		}
		p, err := Mine(e.Schema, samples, e.Options)
		if err != nil {
			return nil, nil, err
		}
		fp := p.Fingerprint()
		pol = p
		if fp == lastFP {
			stable++
			if stable >= 2 {
				break
			}
		} else {
			stable = 0
		}
		lastFP = fp
	}
	return pol, samples, nil
}

// paramCombos enumerates assignments of the first `width` candidate
// values to each parameter (cartesian, capped).
func paramCombos(params []string, candidates map[string][]sqlvalue.Value, width int) []map[string]sqlvalue.Value {
	out := []map[string]sqlvalue.Value{{}}
	for _, p := range params {
		vals := candidates[p]
		if len(vals) > width {
			vals = vals[:width]
		}
		if len(vals) == 0 {
			return nil
		}
		var next []map[string]sqlvalue.Value
		for _, base := range out {
			for _, v := range vals {
				m := make(map[string]sqlvalue.Value, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[p] = v
				next = append(next, m)
				if len(next) > 64 {
					return next
				}
			}
		}
		out = next
	}
	return out
}

// runOnce executes one handler invocation, collecting its trace; an
// abort still yields the queries issued before it (they revealed
// data). A handler that errors for non-abort reasons is skipped: the
// explorer probes blindly and some inputs are simply invalid.
func (e *Explorer) runOnce(h *appdsl.Handler, uid int64, params map[string]sqlvalue.Value) (*Sample, error) {
	var entries []MinedEntry
	runner := appdsl.RunnerFunc(func(sql string, args []sqlvalue.Value) (*appdsl.Rows, error) {
		res, err := e.DB.QuerySQL(sql, sqlparser.Args{Positional: args})
		if err != nil {
			return nil, err
		}
		entries = append(entries, MinedEntry{SQL: sql, Args: args, Columns: res.Columns, Rows: res.Rows})
		return &appdsl.Rows{Columns: res.Columns, Rows: res.Rows}, nil
	})
	session := map[string]sqlvalue.Value{"user_id": sqlvalue.NewInt(uid)}
	_, err := appdsl.Run(h, params, session, runner)
	if err != nil {
		if _, aborted := err.(*appdsl.AbortError); !aborted {
			return nil, nil //nolint: invalid input; skip silently
		}
	}
	if len(entries) == 0 {
		return nil, nil
	}
	return &Sample{Handler: h.Name, Session: session, Params: params, Entries: entries}, nil
}

// candidateValues proposes request-parameter values: for a parameter
// named like "<x>_id", the distinct values of key columns whose name
// resembles x, else the distinct values of every integer key column;
// always including one guaranteed miss.
func (e *Explorer) candidateValues() map[string][]sqlvalue.Value {
	out := map[string][]sqlvalue.Value{}
	paramNames := map[string]bool{}
	for _, h := range e.App.Handlers {
		for _, p := range h.Params {
			paramNames[p] = true
		}
	}
	for p := range paramNames {
		stem := strings.TrimSuffix(strings.ToLower(p), "_id")
		var vals []sqlvalue.Value
		seen := map[string]bool{}
		add := func(v sqlvalue.Value) {
			k := v.Key()
			if !seen[k] && len(vals) < e.MaxValuesPerParam {
				seen[k] = true
				vals = append(vals, v)
			}
		}
		for _, t := range e.Schema.Tables() {
			match := strings.Contains(strings.ToLower(t.Name), stem)
			for _, pk := range t.PrimaryKey {
				ci, _ := t.ColumnIndex(pk)
				if t.Columns[ci].Type != sqlvalue.Int {
					continue
				}
				if !match && !strings.Contains(strings.ToLower(pk), stem) {
					continue
				}
				for _, row := range e.DB.Snapshot(t.Name) {
					add(row[ci])
				}
			}
		}
		// A guaranteed miss exercises the abort paths.
		vals = append(vals, sqlvalue.NewInt(999983))
		sort.Slice(vals, func(i, j int) bool { return sqlvalue.Less(vals[i], vals[j]) })
		out[p] = vals
	}
	return out
}

// ExploreAndMine is the convenience entry point used by cmd/acextract:
// auto-generate inputs for the app over the database and mine a
// policy.
func ExploreAndMine(s *schema.Schema, app *appdsl.App, db *engine.DB, opts MineOptions) (*policy.Policy, error) {
	ex := &Explorer{Schema: s, App: app, DB: db, Options: opts}
	p, samples, err := ex.Explore()
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("extract: exploration produced no samples")
	}
	_ = samples
	return p, nil
}
