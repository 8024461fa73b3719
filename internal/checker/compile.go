package checker

// The policy compiler. A policy snapshot is compiled ONCE, when it is
// published (NewWithOptions / ResetCache / StagePolicy), into the plan
// the cold coverage search runs against:
//
//   - relation symbols are interned to dense small-int ids;
//   - every view disjunct becomes a match program: its variables are
//     interned to dense slots and every atom position is reduced to
//     one of bind slot / check slot / match ground term, so embedding
//     a view is array writes and term compares — no maps, no strings;
//   - a discrimination index per relation lists the view atoms over
//     it and, per argument position, which of them pin which ground
//     term (constant or parameter) there and which leave the position
//     free, so a query atom that contradicts a pinned term never
//     meets the view at all.
//
// Duplicate disjuncts — same view name and same canonical form — are
// deduped at compile time; they can only produce identical candidate
// embeddings.

import (
	"repro/internal/cq"
	"repro/internal/sqlvalue"
)

// symTab interns relation names to dense small-int ids.
type symTab struct {
	ids   map[string]int
	names []string
}

func (s *symTab) intern(name string) int {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := len(s.names)
	s.ids[name] = id
	s.names = append(s.names, name)
	return id
}

// id returns the interned id for a relation name; ok is false for
// relations no policy view mentions (such a relation has no candidate
// views at all).
func (s *symTab) id(name string) (int, bool) {
	id, ok := s.ids[name]
	return id, ok
}

// termKey is the discrimination index's identity for a ground term:
// two keyed terms are cq-equal exactly when their keys are equal.
type termKey struct {
	kind uint8 // keyParam, or keyConst + the constant's sqlvalue.Type
	i    int64
	s    string
}

const (
	keyParam uint8 = iota
	keyConst
)

// discKey returns the term's index key. ok is false for terms the
// index cannot discriminate on: variables, and REAL constants — a
// REAL equals every integer of the same value (cq.Term.Equal compares
// numerically), which no exact key captures, so REALs are matched by
// comparison only.
func discKey(t cq.Term) (termKey, bool) {
	switch t.Kind {
	case cq.KindParam:
		return termKey{kind: keyParam, s: t.Param}, true
	case cq.KindConst:
		switch typ := t.Const.Type(); typ {
		case sqlvalue.Real:
		case sqlvalue.Text:
			return termKey{kind: keyConst + uint8(typ), s: t.Const.Text()}, true
		default:
			return termKey{kind: keyConst + uint8(typ), i: t.Const.Int()}, true
		}
	}
	return termKey{}, false
}

// One position of a view atom, as the matcher executes it. Which of
// bind/check a variable occurrence is never depends on the data: atoms
// are matched in body order and positions left to right, so the first
// occurrence always binds and every later one checks.
const (
	opBind   uint8 = iota // first occurrence of a view variable: bind its slot
	opCheck               // later occurrence: the target term must match the slot
	opGround              // constant or parameter: the target term must match it
)

type posOp struct {
	kind uint8
	// vis (bind/check): the variable is in the view head, so the
	// position is visible to the caller.
	vis bool
	// arg is the slot (bind/check) or the index into grounds.
	arg int32
}

// atomProg is one view atom's match program.
type atomProg struct {
	rel int32
	ops []posOp
}

// compiledView is one policy-view disjunct and its match program.
type compiledView struct {
	q       *cq.Query
	atoms   []atomProg
	grounds []cq.Term
	// slotVars[s] is slot s's view variable as a term. Slots below
	// nbound are bound by the atoms (first-occurrence order); the rest
	// occur only in the head or the comparisons, and map to themselves
	// under every embedding, as cq.Mapping.Apply leaves them.
	slotVars []cq.Term
	nbound   int
	// head lists the slots of the view's head variables.
	head []int32
	// comps[i] gives the slots of q.Comps[i]'s sides, -1 for a ground
	// side.
	comps [][2]int32
}

// viewAtom names one atom of one compiled view.
type viewAtom struct{ view, atom int32 }

// posIndex discriminates a relation's view atoms on one argument
// position. Entry numbers index the relation's byRel list.
type posIndex struct {
	// pinned maps a ground term to the entries (ascending) that pin it
	// here.
	pinned map[termKey][]int32
	// wild lists the entries (ascending) no key can rule out: a
	// variable here, or a REAL constant.
	wild []int32
}

// compiledPolicy is the immutable plan for one policy snapshot.
type compiledPolicy struct {
	fp    string
	syms  symTab
	views []compiledView
	// byRel[rel] lists every view atom over the relation, in policy
	// order.
	byRel [][]viewAtom
	// disc[rel][k] discriminates byRel[rel] on argument position k.
	disc [][]posIndex
}

// compilePolicy builds the plan from a policy's view disjuncts. It
// never consults the schema: a view over a relation the schema does
// not know simply indexes under a symbol no translated query will ever
// look up.
func compilePolicy(fp string, disjuncts []*cq.Query) *compiledPolicy {
	comp := &compiledPolicy{fp: fp, syms: symTab{ids: make(map[string]int)}}
	seen := make(map[string]bool, len(disjuncts))
	for _, q := range disjuncts {
		key := q.Name + "\x00" + q.CanonicalKey()
		if seen[key] {
			continue // duplicate disjunct: identical candidates
		}
		seen[key] = true
		comp.views = append(comp.views, compileView(&comp.syms, q))
	}
	comp.byRel = make([][]viewAtom, len(comp.syms.names))
	comp.disc = make([][]posIndex, len(comp.syms.names))
	for vi := range comp.views {
		v := &comp.views[vi]
		for ai := range v.atoms {
			ap := &v.atoms[ai]
			e := int32(len(comp.byRel[ap.rel]))
			comp.byRel[ap.rel] = append(comp.byRel[ap.rel], viewAtom{view: int32(vi), atom: int32(ai)})
			for len(comp.disc[ap.rel]) < len(ap.ops) {
				comp.disc[ap.rel] = append(comp.disc[ap.rel], posIndex{pinned: make(map[termKey][]int32)})
			}
			for k, op := range ap.ops {
				pi := &comp.disc[ap.rel][k]
				if op.kind == opGround {
					if key, ok := discKey(v.grounds[op.arg]); ok {
						pi.pinned[key] = append(pi.pinned[key], e)
						continue
					}
				}
				pi.wild = append(pi.wild, e)
			}
		}
	}
	return comp
}

// compileView interns the view's variables to slots and reduces its
// atoms to match programs.
func compileView(syms *symTab, q *cq.Query) compiledView {
	v := compiledView{q: q, atoms: make([]atomProg, len(q.Atoms))}
	slots := make(map[string]int32)
	slotOf := func(t cq.Term) int32 {
		if !t.IsVar() {
			return -1
		}
		s, ok := slots[t.Var]
		if !ok {
			s = int32(len(v.slotVars))
			slots[t.Var] = s
			v.slotVars = append(v.slotVars, t)
		}
		return s
	}
	inHead := make(map[string]bool, len(q.Head))
	for _, t := range q.Head {
		if t.IsVar() {
			inHead[t.Var] = true
		}
	}
	for ai, a := range q.Atoms {
		ap := atomProg{rel: int32(syms.intern(a.Table)), ops: make([]posOp, len(a.Args))}
		for k, t := range a.Args {
			if !t.IsVar() {
				ap.ops[k] = posOp{kind: opGround, arg: int32(len(v.grounds))}
				v.grounds = append(v.grounds, t)
				continue
			}
			op := posOp{kind: opCheck, vis: inHead[t.Var]}
			if _, bound := slots[t.Var]; !bound {
				op.kind = opBind
			}
			op.arg = slotOf(t)
			ap.ops[k] = op
		}
		v.atoms[ai] = ap
	}
	v.nbound = len(v.slotVars)
	for _, t := range q.Head {
		if t.IsVar() {
			v.head = append(v.head, slotOf(t))
		}
	}
	for _, c := range q.Comps {
		v.comps = append(v.comps, [2]int32{slotOf(c.Left), slotOf(c.Right)})
	}
	return v
}
