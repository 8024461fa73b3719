package cq

// Fact extraction. Which facts a statement's answer can yield is decided
// by its translation, not by the rows it returns:
//
//   - a positive fact R(c1..cn) comes from a returned row when the
//     statement is one non-aggregate disjunct and every argument of R's
//     atom is forced: a value of the statement (a slot or a constant) or
//     a column of the row;
//   - a negative fact — no row of R matches the pattern — comes from an
//     empty answer when the disjunct is that one atom, each of its
//     comparisons is between two slots and holds for the call's values,
//     and neither LIMIT nor OFFSET can have cut the answer short.
//
// A FactExtractor records that once per statement (StmtPlan.Facts), so
// deriving an entry's facts is one walk over its rows with no binding,
// no translation and no per-row map. A statement that can yield neither
// kind of fact has no extractor: deriving its entry costs a plan lookup,
// however many rows it returned.

import (
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

type srcKind uint8

const (
	fromTerm srcKind = iota // the term itself: a constant, or a negative pattern's variable
	fromSlot                // the call's value of a slot
	fromCol                 // the row's value in a result column
)

// termSrc says where one term of an extracted fact comes from.
type termSrc struct {
	kind srcKind
	idx  int32 // the slot or the column
	term Term  // fromTerm
}

func (s termSrc) value(raw, row []sqlvalue.Value) sqlvalue.Value {
	switch s.kind {
	case fromSlot:
		return raw[s.idx]
	case fromCol:
		return row[s.idx]
	}
	return s.term.Const
}

func (s termSrc) ground(raw, row []sqlvalue.Value) Term {
	if s.kind == fromTerm {
		return s.term
	}
	return C(s.value(raw, row))
}

// extAtom is an atom with the source of each argument.
type extAtom struct {
	table string
	args  []termSrc
}

func (a *extAtom) build(raw, row []sqlvalue.Value) Atom {
	out := Atom{Table: a.table, Args: make([]Term, len(a.args))}
	for i, s := range a.args {
		out.Args[i] = s.ground(raw, row)
	}
	return out
}

// colCheck is a test every row must pass: its value in col is Identical
// to want's — the previous column of a repeated head variable, or the
// value a head slot or constant stands for.
type colCheck struct {
	col  int32
	want termSrc
}

// slotComp is a comparison between two slots.
type slotComp struct {
	op   CompOp
	l, r int32
}

// FactExtractor derives the facts of one statement's answers.
type FactExtractor struct {
	width  int        // the result's row width
	checks []colCheck // what a row must satisfy to yield facts
	atoms  []extAtom  // the atoms every argument of which is forced
	// neg is the pattern an empty answer rules out, nil when no empty
	// answer localizes to one atom; negComps must all hold for it.
	neg      *extAtom
	negComps []slotComp
}

// Facts returns the statement's fact extractor, nil when no answer to
// it can yield a fact (a fallback plan has none: see BoundFacts).
func (p *StmtPlan) Facts() *FactExtractor { return p.facts }

// limited reports a LIMIT or OFFSET: a result it can cut short says
// nothing about the rows it does not show.
func limited(sel *sqlparser.SelectStmt) bool { return sel.Limit != nil || sel.Offset != nil }

// BoundFacts binds args into sel, translates it and compiles the
// extractor of the result: what deriving facts from a fallback plan's
// statement takes, per call. Nil when binding or translation fails, or
// when the result yields no fact.
func (tr *Translator) BoundFacts(sel *sqlparser.SelectStmt, args sqlparser.Args) *FactExtractor {
	bound, err := sqlparser.Bind(sel, args)
	if err != nil {
		return nil
	}
	b := bound.(*sqlparser.SelectStmt)
	ucq, err := tr.TranslateSelect(b)
	if err != nil || len(ucq) != 1 {
		return nil // outside the fragment, or disjunctive: no branch is known to have matched
	}
	return compileFacts(ucq[0], limited(b))
}

// compileFacts compiles the extractor of one disjunct: a plan template,
// whose value sites are slots, or a bound translation, whose values are
// constants.
func compileFacts(q *Query, limited bool) *FactExtractor {
	if q.AggApprox {
		// An aggregate's answer does not expose the rows it was computed
		// from, and its one result row says nothing about emptiness.
		return nil
	}
	x := &FactExtractor{width: len(q.Head)}
	// Head variable -> its last column: each repeat is checked against the
	// one before it, and a fact takes the last.
	cols := make(map[string]int32)
	for i, h := range q.Head {
		at := int32(i)
		switch s := slotOf(h); {
		case s >= 0:
			x.checks = append(x.checks, colCheck{col: at, want: termSrc{kind: fromSlot, idx: s}})
		case h.IsConst():
			x.checks = append(x.checks, colCheck{col: at, want: termSrc{term: h}})
		case h.IsVar():
			if prev, ok := cols[h.Var]; ok {
				x.checks = append(x.checks, colCheck{col: at, want: termSrc{kind: fromCol, idx: prev}})
			}
			cols[h.Var] = at
		}
	}
next:
	for _, a := range q.Atoms {
		ea := extAtom{table: a.Table, args: make([]termSrc, len(a.Args))}
		for i, t := range a.Args {
			switch s := slotOf(t); {
			case s >= 0:
				ea.args[i] = termSrc{kind: fromSlot, idx: s}
			case t.IsConst():
				ea.args[i] = termSrc{term: t}
			case t.IsVar():
				c, ok := cols[t.Var]
				if !ok {
					continue next // the row does not show it
				}
				ea.args[i] = termSrc{kind: fromCol, idx: c}
			default:
				continue next // a parameter no value was given for
			}
		}
		x.atoms = append(x.atoms, ea)
	}
	if len(x.atoms) == 0 {
		x.checks = nil // no row is looked at
	}
	if len(q.Atoms) == 1 && !limited {
		x.neg, x.negComps = negPattern(q)
	}
	if len(x.atoms) == 0 && x.neg == nil {
		return nil
	}
	return x
}

// negPattern compiles the single atom of q as the pattern its empty
// answer rules out, when every comparison of q is between two slots —
// ground per call, and dropped by instantiation exactly when it holds. A
// comparison with a variable side would mean the emptiness may be the
// comparison's, not the atom's.
func negPattern(q *Query) (*extAtom, []slotComp) {
	var comps []slotComp
	for _, c := range q.Comps {
		l, r := slotOf(c.Left), slotOf(c.Right)
		if l < 0 || r < 0 {
			return nil, nil
		}
		comps = append(comps, slotComp{op: c.Op, l: l, r: r})
	}
	a := q.Atoms[0]
	neg := &extAtom{table: a.Table, args: make([]termSrc, len(a.Args))}
	for i, t := range a.Args {
		if s := slotOf(t); s >= 0 {
			neg.args[i] = termSrc{kind: fromSlot, idx: s}
		} else {
			neg.args[i] = termSrc{term: t}
		}
	}
	return neg, comps
}

// AppendFacts appends to dst the facts one answer yields: raw are the
// call's slot values (StmtPlan.Resolve; nil for a BoundFacts extractor),
// rows the answer. A nil extractor yields nothing.
func (x *FactExtractor) AppendFacts(dst []Fact, raw []sqlvalue.Value, rows [][]sqlvalue.Value) []Fact {
	if x == nil {
		return dst
	}
	if len(rows) == 0 {
		if x.neg == nil {
			return dst
		}
		for _, c := range x.negComps {
			if keep, _ := groundStep(c.op, raw[c.l], raw[c.r]); keep {
				return dst // a comparison that fails: the emptiness is its own
			}
		}
		return append(dst, Fact{Atom: x.neg.build(raw, nil), Negated: true})
	}
	if len(x.atoms) == 0 {
		return dst
	}
next:
	for _, row := range rows {
		if len(row) != x.width {
			continue
		}
		for _, c := range x.checks {
			if !sqlvalue.Identical(row[c.col], c.want.value(raw, row)) {
				continue next
			}
		}
		for i := range x.atoms {
			dst = append(dst, Fact{Atom: x.atoms[i].build(raw, row)})
		}
	}
	return dst
}
