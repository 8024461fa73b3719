package cq

import (
	"sort"

	"repro/internal/schema"
)

// Mapping is a homomorphism assignment: source variable name -> target
// term. Parameters map to themselves implicitly.
type Mapping map[string]Term

// Apply rewrites a term under the mapping.
func (m Mapping) Apply(t Term) Term {
	if t.IsVar() {
		if to, ok := m[t.Var]; ok {
			return to
		}
	}
	return t
}

// ApplyComp rewrites a comparison under the mapping.
func (m Mapping) ApplyComp(c Comparison) Comparison {
	return Comparison{Op: c.Op, Left: m.Apply(c.Left), Right: m.Apply(c.Right)}
}

// Clone copies the mapping.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Hom is one homomorphism from a source query into a target query:
// Map assigns source variables to target terms, and AtomImage[i] is
// the index of the target atom that source atom i maps onto.
type Hom struct {
	Map       Mapping
	AtomImage []int
}

// FindHoms finds homomorphisms from the atoms/comparisons of src into
// tgt, respecting tgt's constraint closure (comparisons of src must be
// entailed by tgt's). init seeds required bindings (e.g. head
// correspondence); nil means unconstrained. If limit > 0, at most
// limit homomorphisms are returned.
func FindHoms(src, tgt *Query, init Mapping, limit int) []Hom {
	tgtCS := NewConstraints()
	tgtCS.AddAll(tgt.Comps)
	return homSearch(src, tgt, tgtCS, init, limit)
}

func homSearch(src, tgt *Query, tgtCS *Constraints, init Mapping, limit int) []Hom {
	// Index target atoms by table.
	type cand struct {
		atom Atom
		idx  int
	}
	byTable := make(map[string][]cand)
	for i, a := range tgt.Atoms {
		byTable[a.Table] = append(byTable[a.Table], cand{atom: a, idx: i})
	}
	var out []Hom
	images := make([]int, len(src.Atoms))
	var rec func(i int, m Mapping)
	rec = func(i int, m Mapping) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if i == len(src.Atoms) {
			// All atoms mapped; verify comparisons are entailed.
			for _, c := range src.Comps {
				if !tgtCS.Implies(m.ApplyComp(c)) {
					return
				}
			}
			out = append(out, Hom{Map: m.Clone(), AtomImage: append([]int(nil), images...)})
			return
		}
		sa := src.Atoms[i]
		for _, tc := range byTable[sa.Table] {
			ta := tc.atom
			if len(ta.Args) != len(sa.Args) {
				continue
			}
			next := m
			cloned := false
			ok := true
			for k, st := range sa.Args {
				tt := ta.Args[k]
				switch {
				case st.IsVar():
					if bound, has := next[st.Var]; has {
						if !termsMatch(bound, tt, tgtCS) {
							ok = false
						}
					} else {
						if !cloned {
							next = next.Clone()
							cloned = true
						}
						next[st.Var] = tt
					}
				default:
					if !termsMatch(st, tt, tgtCS) {
						ok = false
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				images[i] = tc.idx
				rec(i+1, next)
			}
		}
	}
	if init == nil {
		init = Mapping{}
	}
	rec(0, init)
	return out
}

// termsMatch reports whether two target-side terms can be considered
// equal under the target's constraints.
func termsMatch(a, b Term, cs *Constraints) bool {
	if a.Equal(b) {
		return true
	}
	return cs.Implies(Comparison{Op: Eq, Left: a, Right: b})
}

// Contains reports sub ⊆ super: every answer of sub on any instance is
// an answer of super. Decided by searching a containment mapping
// (homomorphism) from super into sub whose comparison images are
// entailed by sub's constraints — sound always, and complete for
// queries whose comparisons are left-semi-interval or entailed
// directly (the shapes our translator emits).
func Contains(sub, super *Query) bool {
	if len(sub.Head) != len(super.Head) {
		return false
	}
	subCS := NewConstraints()
	subCS.AddAll(sub.Comps)
	// Seed the mapping with head correspondence.
	init := Mapping{}
	for i, st := range super.Head {
		tt := sub.Head[i]
		if st.IsVar() {
			if bound, has := init[st.Var]; has {
				if !termsMatch(bound, tt, subCS) {
					return false
				}
			} else {
				init[st.Var] = tt
			}
		} else if !termsMatch(st, tt, subCS) {
			return false
		}
	}
	return len(homSearch(super, sub, subCS, init, 1)) > 0
}

// InfoContains reports whether sub's information content is derivable
// from super's answer: there is an embedding of super's body onto
// sub's entire body (modulo atoms implied by foreign keys when a
// schema is supplied) whose visible (head) positions expose every
// output and distinguishing position of sub. Invisible super positions
// are acceptable when they map a single super variable consistently
// (the join is performed inside super) onto a non-output variable of
// sub whose comparisons super's own body enforces. This is the
// single-view case of the compliance checker's coverage condition,
// and is what makes one policy view redundant given another even when
// their select lists differ in arity.
func InfoContains(s *schema.Schema, sub, super *Query) bool {
	if s != nil {
		sub = ReduceFKAtoms(s, sub)
	}
	target := sub
	required := len(sub.Atoms)
	if s != nil {
		target = ChaseFKs(s, sub)
	}
	subHeadVars := make(map[string]bool, len(sub.Head))
	for _, t := range sub.Head {
		if t.IsVar() {
			subHeadVars[t.Var] = true
		}
	}
	superHeadVars := make(map[string]bool, len(super.Head))
	for _, t := range super.Head {
		if t.IsVar() {
			superHeadVars[t.Var] = true
		}
	}
	homs := FindHoms(super, target, nil, 128)
	for _, h := range homs {
		// Visible sub-side terms: images of super's head.
		visible := make(map[string]bool, len(super.Head))
		for _, t := range super.Head {
			visible[h.Map.Apply(t).Key()] = true
		}
		// Every sub head variable must be visible.
		ok := true
		for _, t := range sub.Head {
			if t.IsVar() && !visible[t.Key()] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// The embedding must cover all of sub's original atoms
		// (chase-implied atoms are free).
		covered := make([]bool, required)
		for _, ti := range h.AtomImage {
			if ti < required {
				covered[ti] = true
			}
		}
		for _, c := range covered {
			if !c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// How many distinct super variables map onto each sub term.
		mappers := map[string]map[string]bool{}
		for v, t := range h.Map {
			k := t.Key()
			if mappers[k] == nil {
				mappers[k] = map[string]bool{}
			}
			mappers[k][v] = true
		}
		// Constraints super's own body enforces, in sub terms.
		superCS := NewConstraints()
		for _, sc := range super.Comps {
			superCS.Add(h.Map.ApplyComp(sc))
		}
		for si, ti := range h.AtomImage {
			sa := super.Atoms[si]
			ta := target.Atoms[ti]
			for k, y := range sa.Args {
				t := ta.Args[k]
				if !y.IsVar() || superHeadVars[y.Var] {
					continue // pinned or visible
				}
				if visible[t.Key()] {
					continue // exposed through another head position
				}
				if !t.IsVar() {
					ok = false // invisible selection on a constant/param
					break
				}
				if subHeadVars[t.Var] {
					ok = false // output variable must be visible
					break
				}
				if len(mappers[t.Key()]) > 1 {
					ok = false // join not performed inside super
					break
				}
				// Comparisons on t must be enforced by super itself.
				for _, sc := range sub.Comps {
					involves := sc.Left.IsVar() && sc.Left.Var == t.Var ||
						sc.Right.IsVar() && sc.Right.Var == t.Var
					if involves && !superCS.Implies(sc) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// InfoContainsUCQ lifts InfoContains to unions disjunct-wise.
func InfoContainsUCQ(s *schema.Schema, sub, super UCQ) bool {
	for _, q1 := range sub {
		found := false
		for _, q2 := range super {
			if InfoContains(s, q1, q2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ContainsUCQ reports u1 ⊆ u2 using the per-disjunct sufficient
// condition: every disjunct of u1 is contained in some disjunct of u2.
func ContainsUCQ(u1, u2 UCQ) bool {
	for _, q1 := range u1 {
		found := false
		for _, q2 := range u2 {
			if Contains(q1, q2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equivalent reports mutual containment.
func Equivalent(a, b *Query) bool {
	return Contains(a, b) && Contains(b, a)
}

// Minimize returns an equivalent query with a minimal set of atoms
// (the CQ core), found by repeatedly dropping atoms whose removal
// preserves equivalence.
func Minimize(q *Query) *Query {
	cur := q.Clone()
	for {
		removed := false
		for i := range cur.Atoms {
			cand := cur.Clone()
			cand.Atoms = append(cand.Atoms[:i], cand.Atoms[i+1:]...)
			if !headSafe(cand) {
				continue
			}
			// Removal relaxes the query, so cur ⊆ cand always; cand ⊆
			// cur makes them equivalent.
			if Contains(cand, cur) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// headSafe reports whether every head variable still appears in some
// atom (a query whose head variable is unbound is not well-formed).
func headSafe(q *Query) bool {
	inAtoms := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				inAtoms[t.Var] = true
			}
		}
	}
	for _, t := range q.Head {
		if t.IsVar() && !inAtoms[t.Var] {
			return false
		}
	}
	for _, c := range q.Comps {
		for _, t := range []Term{c.Left, c.Right} {
			if t.IsVar() && !inAtoms[t.Var] {
				return false
			}
		}
	}
	return true
}

// CoveredAtoms reports, for each atom of q, whether some homomorphism
// image covers it — a helper for diagnosis messages.
func CoveredAtoms(q *Query, by *Query) []bool {
	out := make([]bool, len(q.Atoms))
	cs := NewConstraints()
	cs.AddAll(q.Comps)
	for i, a := range q.Atoms {
		probe := &Query{Atoms: []Atom{a}, Comps: q.Comps}
		probe.Head = nil
		if len(FindHoms(by, probe, nil, 1)) > 0 {
			out[i] = true
		}
	}
	_ = cs
	return out
}

// Canonicalize renames variables to a stable canonical form (v0, v1,
// ... in order of first occurrence) and sorts atoms and comparisons,
// yielding a key usable for caching and deduplication.
func Canonicalize(q *Query) *Query {
	// Stable atom order first: by table, then by argument skeleton
	// (kinds and constants only, ignoring variable names).
	idx := make([]int, len(q.Atoms))
	for i := range idx {
		idx[i] = i
	}
	skeleton := func(a Atom) string {
		s := a.Table + "("
		for _, t := range a.Args {
			switch t.Kind {
			case KindVar:
				s += "v,"
			case KindParam:
				s += "?" + t.Param + ","
			default:
				s += t.Const.Key() + ","
			}
		}
		return s + ")"
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return skeleton(q.Atoms[idx[i]]) < skeleton(q.Atoms[idx[j]])
	})
	ordered := q.Clone()
	ordered.Atoms = ordered.Atoms[:0]
	for _, i := range idx {
		ordered.Atoms = append(ordered.Atoms, q.Atoms[i].Clone())
	}
	// Rename variables in traversal order.
	names := make(map[string]string)
	rename := func(t Term) Term {
		if !t.IsVar() {
			return t
		}
		if n, ok := names[t.Var]; ok {
			return V(n)
		}
		n := "v" + itoa(len(names))
		names[t.Var] = n
		return V(n)
	}
	canon := ordered.Substitute(rename)
	// Sort comparisons by rendering.
	sort.Slice(canon.Comps, func(i, j int) bool {
		return canon.Comps[i].String() < canon.Comps[j].String()
	})
	return canon
}

// Key returns a canonical cache key for the query.
func (q *Query) CanonicalKey() string {
	c := Canonicalize(q)
	s := ""
	for i, t := range c.Head {
		if i > 0 {
			s += ","
		}
		s += t.Key()
	}
	s += "|"
	for _, a := range c.Atoms {
		s += a.String() + ";"
	}
	s += "|"
	for _, cm := range c.Comps {
		s += cm.String() + ";"
	}
	if c.AggApprox {
		s += "|agg"
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
