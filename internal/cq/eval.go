package cq

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/sqlvalue"
)

// Evaluate computes the query's answer on a small instance under set
// semantics: the set of head tuples over all satisfying assignments.
// Parameters must be bound beforehand (BindParams); unbound parameters
// never match any value.
func Evaluate(q *Query, inst Instance) [][]sqlvalue.Value {
	return EvaluateCtx(context.Background(), q, inst)
}

// evalSteps counts the candidate tuples EvaluateCtx has tried, over
// the process (EvalSteps).
var evalSteps atomic.Int64

// EvalSteps reports how many candidate tuples EvaluateCtx has tried in
// this process. It counts each block of 1024 as the evaluation reaches
// it, before its ctx check, so a test can bound the work a canceled
// search does after the cancel.
func EvalSteps() int64 { return evalSteps.Load() }

// EvaluateCtx is Evaluate that gives up once ctx is done: at its start,
// and every 1024 candidate tuples after. The answer of an evaluation
// that gave up is partial: callers tell by ctx.Err and must not use it.
func EvaluateCtx(ctx context.Context, q *Query, inst Instance) [][]sqlvalue.Value {
	if ctx.Err() != nil {
		return nil
	}
	var out [][]sqlvalue.Value
	seen := make(map[string]bool)
	bind := make(map[string]sqlvalue.Value)
	steps, stop := 0, false
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			if !compsHold(q.Comps, bind) {
				return
			}
			row := make([]sqlvalue.Value, len(q.Head))
			for hi, t := range q.Head {
				v, ok := termValue(t, bind)
				if !ok {
					return // head variable unbound: unsafe query
				}
				row[hi] = v
			}
			key := rowKey(row)
			if !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
			return
		}
		a := q.Atoms[i]
		for _, tuple := range inst[a.Table] {
			if stop {
				return
			}
			if steps++; steps&1023 == 0 {
				evalSteps.Add(1024)
				if stop = ctx.Err() != nil; stop {
					return
				}
			}
			if len(tuple) != len(a.Args) {
				continue
			}
			var bound []string
			ok := true
			for k, t := range a.Args {
				switch t.Kind {
				case KindConst:
					if !sqlvalue.Identical(t.Const, tuple[k]) {
						ok = false
					}
				case KindParam:
					ok = false // unbound parameter matches nothing
				case KindVar:
					if v, has := bind[t.Name]; has {
						if !sqlvalue.Identical(v, tuple[k]) {
							ok = false
						}
					} else {
						bind[t.Name] = tuple[k]
						bound = append(bound, t.Name)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range bound {
				delete(bind, v)
			}
		}
	}
	rec(0)
	evalSteps.Add(int64(steps & 1023))
	return out
}

// EvaluateUCQ unions the disjuncts' answers.
func EvaluateUCQ(u UCQ, inst Instance) [][]sqlvalue.Value {
	var out [][]sqlvalue.Value
	seen := make(map[string]bool)
	for _, q := range u {
		for _, row := range Evaluate(q, inst) {
			k := rowKey(row)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
	}
	return out
}

// AnswerKey returns a canonical string for an answer set, independent
// of row order — two instances agree on a query iff their AnswerKeys
// match. Each row's key ends in a newline, so the one empty row of a
// boolean query that holds keys apart from no row at all.
func AnswerKey(rows [][]sqlvalue.Value) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r) + "\n"
	}
	sort.Strings(keys)
	return strings.Join(keys, "")
}

// ContainsRow reports whether the answer set contains the row.
func ContainsRow(rows [][]sqlvalue.Value, row []sqlvalue.Value) bool {
	want := rowKey(row)
	for _, r := range rows {
		if rowKey(r) == want {
			return true
		}
	}
	return false
}

func rowKey(row []sqlvalue.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Key())
		b.WriteByte(0)
	}
	return b.String()
}

func termValue(t Term, bind map[string]sqlvalue.Value) (sqlvalue.Value, bool) {
	switch t.Kind {
	case KindConst:
		return t.Const, true
	case KindVar:
		v, ok := bind[t.Name]
		return v, ok
	}
	return sqlvalue.Value{}, false
}

func compsHold(comps []Comparison, bind map[string]sqlvalue.Value) bool {
	for _, c := range comps {
		l, ok1 := termValue(c.Left, bind)
		r, ok2 := termValue(c.Right, bind)
		if !ok1 || !ok2 {
			return false
		}
		if !groundHolds(Comparison{Op: c.Op, Left: C(l), Right: C(r)}) {
			return false
		}
	}
	return true
}
