package cq

import (
	"repro/internal/sqlvalue"
)

// Constraints is a conjunction of equalities, disequalities, and order
// constraints over terms, with a decision procedure for consistency
// and implication. Variables and parameters are uninterpreted symbols;
// constants are interpreted by their value order.
//
// The implication check is sound and complete for the order-theoretic
// fragment (conjunctions of =, <>, <, <= over a dense total order with
// constants), which covers the comparisons our SQL subset produces.
type Constraints struct {
	parent map[string]string
	terms  map[string]Term // key -> a representative term of that key
	// Order edges between class representatives: weight 0 for <=,
	// -1 for <. Stored as le[a][b] = strict?
	le  map[string]map[string]bool
	nes []pair

	dirty  bool
	closed *closure
}

type pair struct{ a, b string }

// NewConstraints returns an empty constraint set.
func NewConstraints() *Constraints {
	return &Constraints{
		parent: make(map[string]string),
		terms:  make(map[string]Term),
		le:     make(map[string]map[string]bool),
		dirty:  true,
	}
}

// Clone copies the constraint set.
func (cs *Constraints) Clone() *Constraints {
	out := NewConstraints()
	for k, v := range cs.parent {
		out.parent[k] = v
	}
	for k, v := range cs.terms {
		out.terms[k] = v
	}
	for a, m := range cs.le {
		nm := make(map[string]bool, len(m))
		for b, s := range m {
			nm[b] = s
		}
		out.le[a] = nm
	}
	out.nes = append([]pair(nil), cs.nes...)
	return out
}

// Reset empties the set for reuse, keeping its map capacity: a caller
// deciding many small conjunctions in a row (the checker's cold cover
// search) reuses one Constraints instead of allocating three maps per
// conjunction.
func (cs *Constraints) Reset() {
	clear(cs.parent)
	clear(cs.terms)
	clear(cs.le)
	clear(cs.nes)
	cs.nes = cs.nes[:0]
	cs.dirty = true
	cs.closed = nil
}

func (cs *Constraints) intern(t Term) string {
	k := t.Key()
	if _, ok := cs.parent[k]; !ok {
		cs.parent[k] = k
		cs.terms[k] = t
		cs.dirty = true
	}
	return k
}

func (cs *Constraints) find(k string) string {
	for cs.parent[k] != k {
		cs.parent[k] = cs.parent[cs.parent[k]]
		k = cs.parent[k]
	}
	return k
}

// AddEq asserts a = b.
func (cs *Constraints) AddEq(a, b Term) {
	ka, kb := cs.find(cs.intern(a)), cs.find(cs.intern(b))
	if ka == kb {
		return
	}
	// Prefer a constant as class representative.
	if cs.terms[kb].IsConst() && !cs.terms[ka].IsConst() {
		ka, kb = kb, ka
	}
	cs.parent[kb] = ka
	cs.dirty = true
}

// Add asserts the comparison.
func (cs *Constraints) Add(c Comparison) {
	switch c.Op {
	case Eq:
		cs.AddEq(c.Left, c.Right)
	case Ne:
		cs.nes = append(cs.nes, pair{cs.intern(c.Left), cs.intern(c.Right)})
		cs.dirty = true
	case Lt:
		cs.addLe(c.Left, c.Right, true)
	case Le:
		cs.addLe(c.Left, c.Right, false)
	case Gt:
		cs.addLe(c.Right, c.Left, true)
	case Ge:
		cs.addLe(c.Right, c.Left, false)
	}
}

// AddAll asserts every comparison in the slice.
func (cs *Constraints) AddAll(comps []Comparison) {
	for _, c := range comps {
		cs.Add(c)
	}
}

func (cs *Constraints) addLe(a, b Term, strict bool) {
	ka, kb := cs.intern(a), cs.intern(b)
	m := cs.le[ka]
	if m == nil {
		m = make(map[string]bool)
		cs.le[ka] = m
	}
	// Strict dominates non-strict on the same edge.
	m[kb] = m[kb] || strict
	cs.dirty = true
}

// closure holds the computed transitive closure over class reps.
type closure struct {
	reps  []string
	index map[string]int
	// dist[i][j]: 0 => rep_i <= rep_j derivable, -1 => rep_i < rep_j
	// derivable, +1 (sentinel) => no relation derived.
	dist [][]int8
	// constVal[i]: the constant value of class i, if any.
	constVal []sqlvalue.Value
	hasConst []bool
	// ne[i*n+j]: classes known distinct.
	ne map[[2]int]bool
	// constIdx lists the classes with a constant value (the classes a
	// virtual term can relate to; see impliesVirtual).
	constIdx []int

	inconsistent bool
}

const noRel int8 = 1

// emptyClosure is the closure of the empty set, shared and never
// written: with no class to index, every probe resolves through
// impliesVirtual without touching it.
var emptyClosure = &closure{}

func (cs *Constraints) close() *closure {
	if !cs.dirty && cs.closed != nil {
		return cs.closed
	}
	if len(cs.parent) == 0 {
		cs.closed, cs.dirty = emptyClosure, false
		return emptyClosure
	}
	// Collect class representatives.
	repSet := make(map[string]bool)
	for k := range cs.parent {
		repSet[cs.find(k)] = true
	}
	cl := &closure{index: make(map[string]int), ne: make(map[[2]int]bool)}
	for r := range repSet {
		cl.index[r] = len(cl.reps)
		cl.reps = append(cl.reps, r)
	}
	n := len(cl.reps)
	cl.dist = make([][]int8, n)
	cl.constVal = make([]sqlvalue.Value, n)
	cl.hasConst = make([]bool, n)
	for i := range cl.dist {
		cl.dist[i] = make([]int8, n)
		for j := range cl.dist[i] {
			if i == j {
				cl.dist[i][j] = 0
			} else {
				cl.dist[i][j] = noRel
			}
		}
	}
	// Constants per class: the representative term is a constant when
	// the class contains one (union prefers constants), but a class
	// could have been formed by unioning two constants — detect
	// conflicts by scanning all keys.
	for k, t := range cs.terms {
		if !t.IsConst() {
			continue
		}
		i := cl.index[cs.find(k)]
		if cl.hasConst[i] {
			if !sqlvalue.Identical(cl.constVal[i], t.Const) {
				cl.inconsistent = true
			}
			continue
		}
		cl.hasConst[i] = true
		cl.constVal[i] = t.Const
	}
	// Order edges.
	upd := func(i, j int, w int8) {
		if w < cl.dist[i][j] || cl.dist[i][j] == noRel {
			cl.dist[i][j] = w
		}
	}
	for a, m := range cs.le {
		i := cl.index[cs.find(a)]
		for b, strict := range m {
			j := cl.index[cs.find(b)]
			w := int8(0)
			if strict {
				w = -1
			}
			upd(i, j, w)
		}
	}
	// Relations among constant classes.
	for i := 0; i < n; i++ {
		if !cl.hasConst[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || !cl.hasConst[j] {
				continue
			}
			c, ok := sqlvalue.Compare(cl.constVal[i], cl.constVal[j])
			if !ok {
				// Incomparable classes (e.g. TEXT vs INT): distinct.
				cl.ne[[2]int{i, j}] = true
				continue
			}
			switch {
			case c < 0:
				upd(i, j, -1)
				cl.ne[[2]int{i, j}] = true
			case c > 0:
				upd(j, i, -1)
				cl.ne[[2]int{i, j}] = true
			}
		}
	}
	// Disequalities.
	for _, p := range cs.nes {
		i := cl.index[cs.find(p.a)]
		j := cl.index[cs.find(p.b)]
		if i == j {
			cl.inconsistent = true
			continue
		}
		cl.ne[[2]int{i, j}] = true
		cl.ne[[2]int{j, i}] = true
	}
	// Floyd–Warshall with saturation at -1 (dense order: a<b<c still
	// just yields a<c; weights below -1 are clamped).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if cl.dist[i][k] == noRel {
				continue
			}
			for j := 0; j < n; j++ {
				if cl.dist[k][j] == noRel {
					continue
				}
				w := cl.dist[i][k] + cl.dist[k][j]
				if w < -1 {
					w = -1
				}
				if cl.dist[i][j] == noRel || w < cl.dist[i][j] {
					cl.dist[i][j] = w
				}
			}
		}
	}
	// Inconsistency: strict cycle, or a<=b & b<=a with a != b known.
	for i := 0; i < n && !cl.inconsistent; i++ {
		if cl.dist[i][i] < 0 {
			cl.inconsistent = true
			break
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if cl.dist[i][j] != noRel && cl.dist[j][i] != noRel && cl.dist[i][j] == 0 && cl.dist[j][i] == 0 && cl.ne[[2]int{i, j}] {
				cl.inconsistent = true
				break
			}
		}
	}
	for i, has := range cl.hasConst {
		if has {
			cl.constIdx = append(cl.constIdx, i)
		}
	}
	cs.closed = cl
	cs.dirty = false
	return cl
}

// Consistent reports whether the constraint set is satisfiable over a
// dense total order.
func (cs *Constraints) Consistent() bool {
	return !cs.close().inconsistent
}

// SameClass reports whether a and b are known equal.
func (cs *Constraints) SameClass(a, b Term) bool {
	return cs.find(cs.intern(a)) == cs.find(cs.intern(b))
}

// ValueOf returns the constant value the term is forced to, if known.
func (cs *Constraints) ValueOf(t Term) (sqlvalue.Value, bool) {
	cl := cs.close()
	i, ok := cl.index[cs.find(cs.intern(t))]
	if !ok || !cl.hasConst[i] {
		return sqlvalue.Value{}, false
	}
	return cl.constVal[i], true
}

// Implies reports whether the comparison is entailed by the set. An
// inconsistent set implies everything.
//
// Implies never grows the set: a term the set has not seen is judged
// as the fresh singleton class interning it would create, without
// interning it (see impliesVirtual). Interning probe terms here used
// to dirty the cached closure, forcing an O(n³) recompute per fresh
// term — quadratic blowup when one constraint set answers probes
// over many terms, exactly what a homomorphism search against a
// shared target closure does.
func (cs *Constraints) Implies(c Comparison) bool {
	cl := cs.close()
	if cl.inconsistent {
		return true
	}
	i, iKnown := cs.classOf(cl, c.Left)
	j, jKnown := cs.classOf(cl, c.Right)
	if !iKnown || !jKnown {
		return cs.impliesVirtual(cl, c, i, iKnown, j, jKnown)
	}
	switch c.Op {
	case Eq:
		return i == j
	case Ne:
		if i == j {
			return false
		}
		if cl.ne[[2]int{i, j}] {
			return true
		}
		return cl.dist[i][j] == -1 || cl.dist[j][i] == -1
	case Le:
		return i == j || (cl.dist[i][j] != noRel && cl.dist[i][j] <= 0)
	case Lt:
		return i != j && cl.dist[i][j] == -1
	case Ge:
		return i == j || (cl.dist[j][i] != noRel && cl.dist[j][i] <= 0)
	case Gt:
		return i != j && cl.dist[j][i] == -1
	}
	return false
}

// classOf resolves a term to its closure class without interning it;
// known is false for terms the set has never seen.
func (cs *Constraints) classOf(cl *closure, t Term) (idx int, known bool) {
	k := t.Key()
	if _, ok := cs.parent[k]; !ok {
		return 0, false
	}
	return cl.index[cs.find(k)], true
}

// impliesVirtual answers Implies when at least one side is a term the
// set has never seen. Such a term is a virtual fresh singleton class:
// it equals nothing already present, and — when it is a constant —
// its only relations are the value-order edges close() would give it
// against the constant classes. This reproduces exactly what
// interning the term and re-closing would conclude, at O(constant
// classes) cost instead of an O(n³) closure recompute.
func (cs *Constraints) impliesVirtual(cl *closure, c Comparison, i int, iKnown bool, j int, jKnown bool) bool {
	if c.Left.Key() == c.Right.Key() {
		// Both sides are the same (unseen) class: reflexivity only.
		return c.Op == Eq || c.Op == Le || c.Op == Ge
	}
	switch {
	case iKnown: // right side virtual
		if !c.Right.IsConst() {
			return false // an unseen variable/parameter relates to nothing
		}
		v := c.Right.Const
		switch c.Op {
		case Eq:
			return false // a fresh class never equals an existing one
		case Ne:
			return cl.neConst(i, v) || cl.ltConst(i, v) || cl.gtConst(i, v)
		case Le, Lt: // class i < virtual const v
			return cl.ltConst(i, v)
		case Ge, Gt: // class i > virtual const v
			return cl.gtConst(i, v)
		}
		return false
	case jKnown: // left side virtual: mirror the comparison
		return cs.impliesVirtual(cl, Comparison{Op: c.Op.Flip(), Left: c.Right, Right: c.Left}, j, true, i, false)
	default: // both virtual: only constant values can relate them
		if !c.Left.IsConst() || !c.Right.IsConst() {
			return false
		}
		cmp, ok := sqlvalue.Compare(c.Left.Const, c.Right.Const)
		if !ok {
			return c.Op == Ne // incomparable constants are distinct
		}
		switch c.Op {
		case Ne:
			return cmp != 0
		case Lt, Le:
			return cmp < 0 // cmp == 0 with distinct keys: classes stay unrelated
		case Gt, Ge:
			return cmp > 0
		}
		return false // Eq: two fresh classes are never merged
	}
}

// ltConst reports whether class i is derivably < the virtual
// constant v: some constant class m with value below v has i <= m.
// (close() would give the virtual class an incoming strict edge from
// every constant class below it.)
func (cl *closure) ltConst(i int, v sqlvalue.Value) bool {
	for _, m := range cl.constIdx {
		if cl.dist[i][m] == noRel {
			continue
		}
		if cmp, ok := sqlvalue.Compare(cl.constVal[m], v); ok && cmp < 0 {
			return true
		}
	}
	return false
}

// gtConst reports whether class i is derivably > the virtual
// constant v.
func (cl *closure) gtConst(i int, v sqlvalue.Value) bool {
	for _, m := range cl.constIdx {
		if cl.dist[m][i] == noRel {
			continue
		}
		if cmp, ok := sqlvalue.Compare(cl.constVal[m], v); ok && cmp > 0 {
			return true
		}
	}
	return false
}

// neConst reports the direct disequality close() would record
// between class i and the virtual constant v: i carries a constant
// of a different value (or an incomparable one).
func (cl *closure) neConst(i int, v sqlvalue.Value) bool {
	if !cl.hasConst[i] {
		return false
	}
	cmp, ok := sqlvalue.Compare(cl.constVal[i], v)
	return !ok || cmp != 0
}

// ImpliesAll reports whether every comparison is entailed.
func (cs *Constraints) ImpliesAll(comps []Comparison) bool {
	for _, c := range comps {
		if !cs.Implies(c) {
			return false
		}
	}
	return true
}
