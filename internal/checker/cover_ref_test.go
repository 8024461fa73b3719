package checker

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
)

// An independent reference for the cover decision: the procedure as it
// stood before the compiled search. Materialize the target, enumerate
// each view's embeddings with cq.FindHoms, derive one candidate per
// embedding with map-keyed visibility sets, then BACKTRACK over one
// candidate per needed atom and validate joint visibility at every
// leaf. It shares nothing with cover.go's matcher — not offer,
// atomCoverOK or observable, not the occurrence census, and not the
// per-atom first pick that replaced the backtracking search — so a
// mistake in the visibility rules, or in the argument that first picks
// equal the search's first assignment, is a disagreement here.

type refOcc struct {
	atoms                    map[int]bool
	inHead, inComps, multiIn bool
}

func refCensus(q *cq.Query) map[string]*refOcc {
	out := map[string]*refOcc{}
	get := func(v string) *refOcc {
		if out[v] == nil {
			out[v] = &refOcc{atoms: map[int]bool{}}
		}
		return out[v]
	}
	for ai, a := range q.Atoms {
		here := map[string]bool{}
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			o := get(t.Name)
			o.atoms[ai] = true
			o.multiIn = o.multiIn || here[t.Name]
			here[t.Name] = true
		}
	}
	for _, t := range q.Head {
		if t.IsVar() {
			get(t.Name).inHead = true
		}
	}
	for _, cmp := range q.Comps {
		for _, t := range []cq.Term{cmp.Left, cmp.Right} {
			if t.IsVar() {
				get(t.Name).inComps = true
			}
		}
	}
	return out
}

// refCand is one usable view embedding.
type refCand struct {
	view     string
	covers   []bool          // per query atom: in the image, every position passes the visibility rule
	visible  map[string]bool // term keys the view head exposes under the embedding
	enforced map[string]bool // comparison-only query variables the view's own body constrains
}

// refCandidates derives the covering candidates of view v among its
// embeddings into target (q's atoms, then the positive facts).
func refCandidates(v, q, target *cq.Query, occ map[string]*refOcc) []refCand {
	headVars := map[string]bool{}
	for _, t := range v.Head {
		if t.IsVar() {
			headVars[t.Name] = true
		}
	}
	var out []refCand
	for _, h := range cq.FindHoms(v, target, nil, 0) {
		cand := refCand{
			view:     v.Name,
			covers:   make([]bool, len(q.Atoms)),
			visible:  map[string]bool{},
			enforced: map[string]bool{},
		}
		for _, ht := range v.Head {
			cand.visible[h.Map.Apply(ht).Key()] = true
		}
		viewCS := cq.NewConstraints()
		for _, vc := range v.Comps {
			viewCS.Add(h.Map.ApplyComp(vc))
		}
		any := false
		for src, tgt := range h.AtomImage {
			if tgt < len(q.Atoms) && refAtomCoverOK(v.Atoms[src], q.Atoms[tgt], headVars, viewCS, occ, q, cand.enforced) {
				cand.covers[tgt] = true
				any = true
			}
		}
		if any {
			out = append(out, cand)
		}
	}
	return out
}

// refAtomCoverOK: a view position that is neither pinned by the view
// (constant, parameter) nor visible in its head may only face a pure
// existential query variable, or a comparison-only one whose every
// comparison the view's own body implies.
func refAtomCoverOK(viewAtom, qAtom cq.Atom, headVars map[string]bool, viewCS *cq.Constraints, occ map[string]*refOcc, q *cq.Query, enforced map[string]bool) bool {
	for k, y := range viewAtom.Args {
		if !y.IsVar() || headVars[y.Name] {
			continue
		}
		t := qAtom.Args[k]
		if !t.IsVar() {
			return false
		}
		o := occ[t.Name]
		if o.inHead || len(o.atoms) > 1 || o.multiIn {
			return false
		}
		if o.inComps {
			for _, qc := range q.Comps {
				involves := qc.Left.IsVar() && qc.Left.Name == t.Name || qc.Right.IsVar() && qc.Right.Name == t.Name
				if involves && !viewCS.Implies(qc) {
					return false
				}
			}
			enforced[t.Name] = true
		}
	}
	return true
}

// refValid enforces joint visibility on a complete assignment: every
// head, comparison or shared variable must be visible in the candidate
// covering each atom it occurs in, or be a comparison-only variable of
// one atom that the candidate's view enforces.
func refValid(occ map[string]*refOcc, byAtom map[int]*refCand) bool {
	for v, o := range occ {
		if !(o.inHead || o.inComps || len(o.atoms) > 1 || o.multiIn) {
			continue
		}
		compOnly := o.inComps && !o.inHead && len(o.atoms) == 1 && !o.multiIn
		for ai := range o.atoms {
			cand, needed := byAtom[ai]
			if !needed || cand.visible[cq.V(v).Key()] || compOnly && cand.enforced[v] {
				continue
			}
			return false
		}
	}
	return true
}

// refSearch backtracks over options[i] for need[i], in candidate order.
func refSearch(occ map[string]*refOcc, cands []refCand, need []int, options [][]int, assign []int, i int) bool {
	if i == len(need) {
		byAtom := map[int]*refCand{}
		for ni, ai := range need {
			byAtom[ai] = &cands[assign[ni]]
		}
		return refValid(occ, byAtom)
	}
	for _, ci := range options[i] {
		assign[i] = ci
		if refSearch(occ, cands, need, options, assign, i+1) {
			return true
		}
	}
	return false
}

// refDisjunct decides one disjunct; on ok it returns the views used.
func refDisjunct(views []*cq.Query, q *cq.Query, facts []cq.Fact) (ok bool, used []string, reason string) {
	cs := cq.NewConstraints()
	cs.AddAll(q.Comps)
	if !cs.Consistent() {
		return true, nil, ""
	}
	target := &cq.Query{Atoms: append([]cq.Atom(nil), q.Atoms...), Comps: q.Comps}
	for _, f := range facts {
		if !f.Negated {
			target.Atoms = append(target.Atoms, f.Atom)
			continue
		}
		for _, a := range q.Atoms {
			if atomInstanceOf(a, f.Atom, cs) {
				return true, nil, "" // the atom can only match a pattern known to be empty
			}
		}
	}
	occ := refCensus(q)
	var cands []refCand
	for _, v := range views {
		cands = append(cands, refCandidates(v, q, target, occ)...)
	}
	var need []int
	for ai, a := range q.Atoms {
		known := false
		for _, f := range facts {
			known = known || !f.Negated && atomGround(a) && atomsEqual(a, f.Atom)
		}
		if !known {
			need = append(need, ai)
		}
	}
	options := make([][]int, len(need))
	for ni, ai := range need {
		for ci := range cands {
			if cands[ci].covers[ai] {
				options[ni] = append(options[ni], ci)
			}
		}
		if len(options[ni]) == 0 {
			return false, nil, fmt.Sprintf("atom %s is not covered by any policy view", q.Atoms[ai])
		}
	}
	assign := make([]int, len(need))
	if !refSearch(occ, cands, need, options, assign, 0) {
		return false, nil, "no combination of view embeddings determines the query's answer"
	}
	for _, ci := range assign {
		used = append(used, cands[ci].view)
	}
	return true, used, ""
}

// refDecide is coverAll under the reference procedure.
func refDecide(views, tpl []*cq.Query, facts []cq.Fact) Decision {
	seen := map[string]bool{}
	for _, q := range tpl {
		ok, used, reason := refDisjunct(views, q, facts)
		if !ok {
			return Decision{Reason: reason}
		}
		for _, v := range used {
			seen[v] = true
		}
	}
	d := Decision{Allowed: true, Reason: "reveals no database content"}
	for v := range seen {
		d.Views = append(d.Views, v)
	}
	if len(d.Views) > 0 {
		sort.Strings(d.Views)
		d.Reason = "covered by " + strings.Join(d.Views, ", ")
	}
	return d
}
