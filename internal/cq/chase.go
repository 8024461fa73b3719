package cq

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// ChaseFKs extends the query's body with the atoms implied by foreign
// keys, treating each FK as an inclusion dependency: if an atom of
// table T has a FK (cols) -> R(refCols), the referenced R-atom with
// matching key columns (and fresh variables elsewhere) is implied.
// One round suffices for acyclic schemas; cyclic FK chains are cut off
// after a bounded number of added atoms. The returned query lists the
// original atoms first, then the implied ones.
func ChaseFKs(s *schema.Schema, q *Query) *Query {
	out := q.Clone()
	fresh := 0
	seen := map[string]bool{}
	for _, a := range out.Atoms {
		seen[a.String()] = true
	}
	queue := append([]Atom(nil), out.Atoms...)
	const maxAdded = 32
	added := 0
	for len(queue) > 0 && added < maxAdded {
		a := queue[0]
		queue = queue[1:]
		tab, ok := s.Table(a.Table)
		if !ok {
			continue
		}
		for _, fk := range tab.ForeignKeys {
			ref, ok := s.Table(fk.RefTable)
			if !ok {
				continue
			}
			implied := Atom{Table: strings.ToLower(ref.Name), Args: make([]Term, len(ref.Columns))}
			for i := range ref.Columns {
				fresh++
				implied.Args[i] = V(fmt.Sprintf("fk%d", fresh))
			}
			for i, c := range fk.Columns {
				ci, _ := tab.ColumnIndex(c)
				ri, _ := ref.ColumnIndex(fk.RefColumns[i])
				implied.Args[ri] = a.Args[ci]
			}
			if seen[implied.String()] {
				continue
			}
			if hasMatchingAtomFK(out.Atoms, implied, fk, ref) {
				continue
			}
			seen[implied.String()] = true
			out.Atoms = append(out.Atoms, implied)
			queue = append(queue, implied)
			added++
		}
	}
	return out
}

// hasMatchingAtomFK reports whether atoms already contains an atom of
// implied's table agreeing on the FK-pinned positions.
func hasMatchingAtomFK(atoms []Atom, implied Atom, fk schema.ForeignKey, ref *schema.Table) bool {
	pinned := make(map[int]Term)
	for i := range fk.Columns {
		ri, _ := ref.ColumnIndex(fk.RefColumns[i])
		pinned[ri] = implied.Args[ri]
	}
	for _, a := range atoms {
		if a.Table != implied.Table {
			continue
		}
		match := true
		for ri, t := range pinned {
			if !a.Args[ri].Equal(t) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// ReduceFKAtoms drops atoms that the schema's foreign keys re-derive
// from the remaining body — e.g. a Doctors atom joined only on a key
// that a Treats atom's FK already implies. It is the inverse of
// ChaseFKs, used to normalize extracted views before comparison.
func ReduceFKAtoms(s *schema.Schema, q *Query) *Query {
	out := q.Clone()
	for i := 0; i < len(out.Atoms); i++ {
		cand := out.Clone()
		removed := cand.Atoms[i]
		cand.Atoms = append(cand.Atoms[:i], cand.Atoms[i+1:]...)
		if !headSafe(cand) {
			continue
		}
		if fkImplies(s, cand, removed, out) {
			out = cand
			i--
		}
	}
	return out
}

// fkImplies reports whether chasing rest re-derives an atom matching
// removed: equal at every position whose term also occurs elsewhere in
// the original query (positions holding variables private to the
// removed atom are existential and match anything).
func fkImplies(s *schema.Schema, rest *Query, removed Atom, orig *Query) bool {
	// Count variable occurrences in the original query.
	occ := map[string]int{}
	for _, a := range orig.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				occ[t.Name]++
			}
		}
	}
	for _, t := range orig.Head {
		if t.IsVar() {
			occ[t.Name]++
		}
	}
	for _, c := range orig.Comps {
		for _, t := range []Term{c.Left, c.Right} {
			if t.IsVar() {
				occ[t.Name]++
			}
		}
	}
	chased := ChaseFKs(s, rest)
	for _, b := range chased.Atoms[len(rest.Atoms):] {
		if b.Table != removed.Table || len(b.Args) != len(removed.Args) {
			continue
		}
		match := true
		for k, t := range removed.Args {
			if t.IsVar() && occ[t.Name] <= 1 {
				continue // private existential position
			}
			if !b.Args[k].Equal(t) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
