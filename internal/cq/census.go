package cq

// VarOcc summarizes where a query variable occurs.
type VarOcc struct {
	Name        string
	NAtoms      int32 // distinct atoms it occurs in
	last        int32 // the latest such atom (census bookkeeping)
	InHead      bool
	InComps     bool
	MultiInAtom bool // appears twice within one atom
}

// Distinguishing: the variable's value is observable in the query's
// answer (head, comparison, join), so a covering view must expose it.
func (o *VarOcc) Distinguishing() bool {
	return o.InHead || o.InComps || o.NAtoms > 1 || o.MultiInAtom
}

// CompOnly: a comparison-only variable confined to one atom, for which
// a view that enforces the comparisons itself is as good as a visible
// column.
func (o *VarOcc) CompOnly() bool {
	return o.InComps && !o.InHead && o.NAtoms == 1 && !o.MultiInAtom
}

// Census is one query's variable-occurrence census: its atom variables
// interned to dense ids, and every atom position resolved to its
// variable's id, so visibility rules index arrays instead of hashing
// names. It depends only on which terms are variables, so a statement
// plan takes it once for all of its instantiations.
type Census struct {
	Vars    []VarOcc
	ArgVar  []int32 // one per atom position, in atom order: variable id or -1
	AtomOff []int32 // AtomOff[ai] is atom ai's first position in ArgVar; len(atoms)+1 entries
}

// VarID returns the id of the atom variable called name, or -1.
func (oc *Census) VarID(name string) int32 {
	for i := range oc.Vars {
		if oc.Vars[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// Build takes the census of q, reusing the census's storage.
func (oc *Census) Build(q *Query) {
	oc.Reset()
	for ai, a := range q.Atoms {
		oc.AtomOff = append(oc.AtomOff, int32(len(oc.ArgVar)))
		for _, t := range a.Args {
			if !t.IsVar() {
				oc.ArgVar = append(oc.ArgVar, -1)
				continue
			}
			id := oc.VarID(t.Var)
			if id < 0 {
				id = int32(len(oc.Vars))
				oc.Vars = append(oc.Vars, VarOcc{Name: t.Var, last: -1})
			}
			o := &oc.Vars[id]
			if o.last == int32(ai) {
				o.MultiInAtom = true
			} else {
				o.NAtoms++
				o.last = int32(ai)
			}
			oc.ArgVar = append(oc.ArgVar, id)
		}
	}
	oc.AtomOff = append(oc.AtomOff, int32(len(oc.ArgVar)))
	// Variables outside every atom never meet a visibility rule.
	for _, t := range q.Head {
		if id := oc.termVar(t); id >= 0 {
			oc.Vars[id].InHead = true
		}
	}
	for _, cmp := range q.Comps {
		if id := oc.termVar(cmp.Left); id >= 0 {
			oc.Vars[id].InComps = true
		}
		if id := oc.termVar(cmp.Right); id >= 0 {
			oc.Vars[id].InComps = true
		}
	}
}

func (oc *Census) termVar(t Term) int32 {
	if !t.IsVar() {
		return -1
	}
	return oc.VarID(t.Var)
}

// Reset empties the census, dropping its references into the query.
func (oc *Census) Reset() {
	clear(oc.Vars)
	oc.Vars, oc.ArgVar, oc.AtomOff = oc.Vars[:0], oc.ArgVar[:0], oc.AtomOff[:0]
}
