package checker

import (
	"context"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// The reference fact derivation: how the trace derived facts before
// statement plans compiled fact extractors (cq/facts.go), kept test-only
// as the oracle the extractors are compared against. It binds each
// entry's arguments into a copy of the statement, translates the copy,
// and walks every returned row through a map from head variables to the
// row's values. It shares nothing with cq.FactExtractor.

// refFactStats counts what the reference saw.
type refFactStats struct {
	entries, translated, positive, negative, rowsRejected, limitedEmpty int
}

// refEntryFacts hands add the facts of one entry. A positive fact
// R(c1..cn) is derived from a returned row when the query is a
// single-disjunct CQ and every argument of an atom is forced: either a
// constant, or a head variable whose value the row supplies. A negative
// fact is derived from an empty result of a single-atom CQ without
// comparisons whose answer no LIMIT or OFFSET cut short.
func refEntryFacts(tr *cq.Translator, e *trace.Entry, stats *refFactStats, add func(cq.Fact)) {
	if stats == nil {
		stats = &refFactStats{}
	}
	stats.entries++
	bound, err := sqlparser.Bind(e.Stmt, e.Args)
	if err != nil {
		return
	}
	sel := bound.(*sqlparser.SelectStmt)
	ucq, err := tr.TranslateSelect(sel)
	if err != nil || len(ucq) != 1 {
		return
	}
	q := ucq[0]
	stats.translated++
	if q.AggApprox {
		return
	}
	if len(e.Rows) == 0 {
		if len(q.Atoms) == 1 && len(q.Comps) == 0 {
			if sel.Limit != nil || sel.Offset != nil {
				stats.limitedEmpty++
				return
			}
			stats.negative++
			add(cq.Fact{Atom: q.Atoms[0].Clone(), Negated: true})
		}
		return
	}
	for _, row := range e.Rows {
		if len(row) != len(q.Head) {
			stats.rowsRejected++
			continue
		}
		bind := make(map[string]sqlvalue.Value)
		okRow := true
		for i, h := range q.Head {
			switch {
			case h.IsVar():
				if prev, dup := bind[h.Name]; dup && !sqlvalue.Identical(prev, row[i]) {
					okRow = false
				}
				bind[h.Name] = row[i]
			case h.IsConst():
				if !sqlvalue.Identical(h.Const, row[i]) {
					okRow = false
				}
			}
		}
		if !okRow {
			stats.rowsRejected++
			continue
		}
		for _, a := range q.Atoms {
			ground := cq.Atom{Table: a.Table, Args: make([]cq.Term, len(a.Args))}
			full := true
			for i, arg := range a.Args {
				switch {
				case arg.IsConst():
					ground.Args[i] = arg
				case arg.IsVar():
					v, ok := bind[arg.Name]
					if !ok {
						full = false
					} else {
						ground.Args[i] = cq.C(v)
					}
				default:
					full = false
				}
				if !full {
					break
				}
			}
			if full {
				stats.positive++
				add(cq.Fact{Atom: ground})
			}
		}
	}
}

// refFacts derives the facts of entries from scratch: each fact at its
// first occurrence, with its canonical string.
func refFacts(tr *cq.Translator, entries []trace.Entry, stats *refFactStats) ([]cq.Fact, []string) {
	var facts []cq.Fact
	var keys []string
	seen := make(map[string]bool)
	for i := range entries {
		refEntryFacts(tr, &entries[i], stats, func(f cq.Fact) {
			if k := f.String(); !seen[k] {
				seen[k] = true
				facts = append(facts, f)
				keys = append(keys, k)
			}
		})
	}
	return facts, keys
}

// newRefFactsChecker is a checker that derives the whole trace's facts
// through the reference on every check; every other step is the
// production one.
func newRefFactsChecker(p *policy.Policy) *Checker {
	c := New(p)
	c.deriveFacts = refFactsOf
	return c
}

func refFactsOf(_ context.Context, st *decideState) bool {
	entries, _ := st.tr.SnapshotState()
	facts, _ := refFacts(st.c.tr, entries, nil)
	st.facts, st.factIDs = st.facts[:0], st.factIDs[:0]
	c := st.c
	c.genMu.Lock()
	defer c.genMu.Unlock()
	for _, f := range facts {
		g := generalizeFact(f, st.session)
		st.facts = append(st.facts, g)
		st.factIDs = append(st.factIDs, c.factIDLocked(g.String()))
	}
	return true
}
