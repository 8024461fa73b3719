package checker

// The policy-coverage decision procedure — the "solver" behind a cold
// decision. coverAll checks every disjunct of a
// decision template; coverDisjunct finds the policy views that embed
// into the disjunct and picks, per query atom, the first embedding
// that covers it under the visibility rules.
//
// The search runs the compiled policy plan (compile.go): the
// discrimination index returns, per query atom, only the view atoms
// whose pinned terms agree with it; each surviving view's match
// program is then run against the embedding target — the query's
// atoms plus the positive trace facts — binding view variables into a
// slot array. DESIGN.md §10 has the layouts, the three pruning rules
// and their soundness arguments. The parity tests compare it against
// refDecide, a test-only reference that shares nothing with it
// (cover_ref_test.go).
//
// The search is serial, on the deciding goroutine; DESIGN.md §10.2 has
// the measurement behind that.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/obsv"
)

// coverAll runs the coverage check for every disjunct of a decision
// template against the given fact set, under one compiled policy plan
// (the caller pins the version; shadow decisions pass the candidate's
// plan here). occs carries the per-disjunct variable-occurrence
// censuses memoized by the decision; sc is the decision's pooled
// search scratch. Callers must check ctx.Err() before caching the
// result: a cancellation mid-search yields a decision that must not
// be stored. An allow leaves its justification in sc.just.
func (c *Checker) coverAll(ctx context.Context, comp *compiledPolicy, tpl []*cq.Query, occs []cq.Census, facts []cq.Fact, sc *coverScratch) Decision {
	sc.used = sc.used[:0]
	sc.just = sc.just[:0]
	for i, q := range tpl {
		res := c.coverDisjunct(ctx, sc, comp, q, &occs[i], facts)
		if ctx.Err() != nil {
			return canceledDecision(ctx)
		}
		if !res.ok {
			return Decision{Allowed: false, Reason: res.reason}
		}
	}
	d := Decision{Allowed: true}
	if len(sc.used) == 0 {
		d.Reason = "reveals no database content"
		return d
	}
	slices.Sort(sc.used)
	d.Views = append([]string(nil), slices.Compact(sc.used)...)
	d.Reason = "covered by " + strings.Join(d.Views, ", ")
	return d
}

// coverResult is the outcome for one disjunct; the views an ok
// disjunct used are appended to coverScratch.used.
type coverResult struct {
	ok     bool
	reason string
}

// resized returns s with length n, reusing its storage when it is large
// enough. Contents are whatever the storage held: callers overwrite or
// clear.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// bitset is a set of small ints over a caller-sized word slice.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// sized returns b with n bits, all clear, reusing its storage.
func (b bitset) sized(n int) bitset {
	b = resized(b, (n+63)/64)
	clear(b)
	return b
}

// coverScratch is one decision's cold-search scratch. It rides the
// pooled decideState: every slice keeps its capacity across decisions,
// nothing in it outlives coverAll, and release drops every reference
// into the decision's query, facts and policy.
type coverScratch struct {
	// The disjunct under search — read-only while views are matched.
	comp  *compiledPolicy
	q     *cq.Query
	occ   *cq.Census
	facts []cq.Fact
	// hasEq: the disjunct's comparisons contain an equality, so two
	// structurally different terms may be entailed equal and term
	// matching falls back to the closure.
	hasEq bool
	// qRel[ai] is query atom ai's interned relation, -1 when no view
	// mentions it.
	qRel []int32
	// need[ai]: the atom is not already a known row, so some view must
	// cover it.
	need []bool
	// factRel[i] is positive fact i's interned relation, -1 for a
	// negative fact or a relation no view mentions; resolved on first
	// use (factsReady), since most searches never look at a fact.
	factsReady bool
	factRel    []int32

	// Views that entered the search, ascending; mark[vi] == epoch flags
	// membership without clearing between disjuncts.
	kept  []int32
	mark  []uint32
	epoch uint32

	m    matcher
	used []string // views picked so far by this coverAll
	// just is the justification J of an allow, as indices into facts,
	// with repeats: the facts the search's proof used. Per disjunct, the
	// negative fact that made it vacuous, or the facts that fact-covered
	// its atoms, and the fact atoms of each pick's embedding. The search
	// over J alone (in the same order) finds the same picks, so it
	// decides the same allow: facts outside J only add embeddings,
	// dropping facts keeps the order of the embeddings that remain, and
	// every embedding that picked lands on J.
	just []int32
}

// release drops every reference the scratch holds, keeping capacity.
// A scratch its decision never searched with (a warm hit) holds none.
func (sc *coverScratch) release() {
	if sc.comp == nil {
		return
	}
	sc.comp, sc.q, sc.occ, sc.facts = nil, nil, nil, nil
	clear(sc.used)
	sc.used = sc.used[:0]
	sc.just = sc.just[:0]
	sc.m.release()
}

// matcher runs match programs against one disjunct's target and
// accumulates, per query atom, whether any embedding covers it and the
// first view whose embedding covers it under the joint visibility
// rule.
type matcher struct {
	sc *coverScratch
	// cs is the disjunct's constraint closure.
	cs *cq.Constraints

	// The view being matched.
	v      *compiledView
	vi     int32
	slots  []*cq.Term // slot -> the target term it is bound to
	images []int32    // view atom -> query atom it landed on, or ^i for fact i
	// touchAfter[i]: some view atom at or after i agrees with some query
	// atom on every pinned position, so a branch that has only touched
	// facts so far can still reach the query.
	touchAfter []bool

	// Per-embedding scratch.
	visible  bitset  // query variables the view head exposes
	enforced bitset  // comparison-only variables the view's own body constrains
	covered  []int32 // query atoms the embedding covers
	viewCS   *cq.Constraints
	viewCSOK bool // viewCS holds this embedding's view comparisons

	// The accumulator.
	seen      []bool  // per query atom: some embedding covers it
	pick      []int32 // per query atom: first view covering it visibly, or -1
	remaining int     // needed atoms still without a pick
	offers    int     // covering embeddings seen (tests)
}

func (m *matcher) release() {
	m.sc, m.v = nil, nil
	clear(m.slots[:cap(m.slots)])
	if m.cs != nil {
		m.cs.Reset()
	}
	if m.viewCS != nil {
		m.viewCS.Reset()
	}
}

// begin points the matcher at the scratch's current disjunct and
// builds its constraint closure.
func (m *matcher) begin(sc *coverScratch) {
	m.sc = sc
	if m.cs == nil {
		m.cs = cq.NewConstraints()
	} else {
		m.cs.Reset()
	}
	m.cs.AddAll(sc.q.Comps)
}

// resetAcc empties the accumulator; sc.need must be final.
func (m *matcher) resetAcc() {
	sc := m.sc
	nq := len(sc.q.Atoms)
	m.seen = resized(m.seen, nq)
	clear(m.seen)
	m.pick = resized(m.pick, nq)
	m.remaining = 0
	for ai := range m.pick {
		m.pick[ai] = -1
		if sc.need[ai] {
			m.remaining++
		}
	}
	m.visible = m.visible.sized(len(sc.occ.Vars))
	m.enforced = m.enforced.sized(len(sc.occ.Vars))
	m.offers = 0
}

// coverDisjunct decides one conjunctive disjunct against a compiled
// policy. Cancellation is polled between views and surfaces as a
// not-ok result the caller must discard after seeing ctx.Err.
func (c *Checker) coverDisjunct(ctx context.Context, sc *coverScratch, comp *compiledPolicy, q *cq.Query, occ *cq.Census, facts []cq.Fact) coverResult {
	sc.comp, sc.q, sc.occ, sc.facts = comp, q, occ, facts
	sc.factsReady = false
	sc.hasEq = false
	for _, cmp := range q.Comps {
		if cmp.Op == cq.Eq {
			sc.hasEq = true
		}
	}
	nq := len(q.Atoms)
	sc.need = resized(sc.need, nq)
	m := &sc.m
	m.begin(sc)

	// A query whose comparisons are unsatisfiable returns nothing.
	if len(q.Comps) > 0 && !m.cs.Consistent() {
		return coverResult{ok: true}
	}

	// Vacuity via negative facts: an atom that can only match a
	// pattern known to be empty makes the disjunct return nothing.
	for _, a := range q.Atoms {
		for i := range facts {
			if f := &facts[i]; f.Negated && f.Atom.Table == a.Table && atomInstanceOf(a, f.Atom, m.cs) {
				sc.just = append(sc.just, int32(i))
				return coverResult{ok: true}
			}
		}
	}

	// Fact-covered atoms: fully ground atoms whose row is known. Every
	// other atom needs a covering view.
	for ai, a := range q.Atoms {
		fi := factCovering(a, facts)
		sc.need[ai] = fi < 0
		if fi >= 0 {
			sc.just = append(sc.just, int32(fi))
		}
	}
	m.resetAcc()
	if m.remaining == 0 {
		return coverResult{ok: true} // reveals nothing beyond rows already known
	}

	// Timed like the decision's sections: every search of a request that
	// carries a SpanSet, else one in sampleEvery — three clock reads are
	// a tenth of a small search. The kept/pruned counters are exact.
	var spans *obsv.SpanSet
	timed := c.reg.Enabled()
	if timed {
		spans = obsv.SpanSetFrom(ctx)
		timed = spans != nil || c.coldTick.Add(1)%sampleEvery == 1
	}
	var t0, t1 time.Time
	if timed {
		t0 = time.Now()
	}
	// Select: the views the discrimination index lets through.
	sc.selectViews()
	c.mColdKept.Add(int64(len(sc.kept)))
	c.mColdPruned.Add(int64(len(comp.views) - len(sc.kept)))
	if timed {
		t1 = time.Now()
		c.mColdSelect.Observe(t1.Sub(t0).Microseconds())
		spans.Record("cover.select", t1.Sub(t0))
	}
	// Match: run their programs.
	canceled := runKept(ctx, sc)
	if timed {
		el := time.Since(t1)
		c.mColdMatch.Observe(el.Microseconds())
		spans.Record("cover.match", el)
	}
	if canceled {
		return coverResult{reason: "check canceled"}
	}

	// Every needed atom takes the first embedding that covers it with
	// its observable variables visible. The visibility rule constrains
	// one (atom, embedding) pair at a time — never two atoms jointly —
	// so per-atom first picks ARE the first satisfying assignment of a
	// backtracking search over the same candidate order.
	for ai := range q.Atoms {
		if sc.need[ai] && !m.seen[ai] {
			return coverResult{
				reason: fmt.Sprintf("atom %s is not covered by any policy view", q.Atoms[ai]),
			}
		}
	}
	if m.remaining > 0 {
		return coverResult{
			reason: "no combination of view embeddings determines the query's answer",
		}
	}
	for ai := range q.Atoms {
		if sc.need[ai] {
			sc.used = append(sc.used, comp.views[m.pick[ai]].q.Name)
		}
	}
	return coverResult{ok: true}
}

// factCovering returns the index of the first positive fact that is a,
// when a is fully ground and a known row, else -1.
func factCovering(a cq.Atom, facts []cq.Fact) int {
	if !atomGround(a) {
		return -1
	}
	for i := range facts {
		if f := &facts[i]; !f.Negated && atomsEqual(a, f.Atom) {
			return i
		}
	}
	return -1
}

// eqTouched reports whether an equality among the disjunct's
// comparisons names t. Only such a term can be entailed equal to a
// structurally different one: a consistent closure merges two classes
// only through an Eq edge, and every member of a merged class was an
// operand of one.
func (sc *coverScratch) eqTouched(t *cq.Term) bool {
	if !sc.hasEq {
		return false
	}
	for i := range sc.q.Comps {
		if cmp := &sc.q.Comps[i]; cmp.Op == cq.Eq && (termEq(t, &cmp.Left) || termEq(t, &cmp.Right)) {
			return true
		}
	}
	return false
}

// selectViews asks the discrimination index which views can land an
// atom on a query atom (rules 1 and 2, DESIGN.md §10.3) and leaves
// them in sc.kept, ascending.
func (sc *coverScratch) selectViews() {
	comp, q := sc.comp, sc.q
	sc.kept = sc.kept[:0]
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
	if len(sc.mark) < len(comp.views) {
		sc.mark = make([]uint32, len(comp.views))
	}
	sc.qRel = sc.qRel[:0]
	for ai := range q.Atoms {
		a := &q.Atoms[ai]
		rel, ok := comp.syms.id(a.Table)
		if !ok {
			sc.qRel = append(sc.qRel, -1)
			continue
		}
		sc.qRel = append(sc.qRel, int32(rel))
		// The most selective position the atom can be discriminated on.
		entries, disc := comp.byRel[rel], comp.disc[rel]
		var pinned, wild []int32
		best := -1
		for k := range a.Args {
			if k >= len(disc) {
				break
			}
			t := &a.Args[k]
			var p []int32
			if !t.IsVar() {
				key, keyed := discKey(*t)
				if !keyed {
					continue
				}
				p = disc[k].pinned[key]
			}
			if sc.eqTouched(t) {
				continue // the closure may equate t with anything: no key rules a view out
			}
			if n := len(p) + len(disc[k].wild); best < 0 || n < best {
				pinned, wild, best = p, disc[k].wild, n
			}
		}
		if best < 0 {
			for e := range entries {
				sc.admit(entries[e], a)
			}
			continue
		}
		for _, e := range pinned {
			sc.admit(entries[e], a)
		}
		for _, e := range wild {
			sc.admit(entries[e], a)
		}
	}
	slices.Sort(sc.kept) // policy-view order, whatever order the index yielded
}

// admit keeps va's view when va agrees with query atom a on every
// position it pins.
func (sc *coverScratch) admit(va viewAtom, a *cq.Atom) {
	if sc.mark[va.view] == sc.epoch {
		return
	}
	v := &sc.comp.views[va.view]
	if sc.m.agrees(v, &v.atoms[va.atom], a.Args) {
		sc.mark[va.view] = sc.epoch
		sc.kept = append(sc.kept, va.view)
	}
}

// runKept runs the match programs of sc.kept in policy-view order,
// stopping once every needed atom has its pick. The bool result reports
// cancellation.
func runKept(ctx context.Context, sc *coverScratch) bool {
	for _, vi := range sc.kept {
		if ctx.Err() != nil {
			return true
		}
		if sc.m.runView(vi) {
			break
		}
	}
	return false
}

// factRels resolves each fact's relation, once per disjunct.
func (sc *coverScratch) factRels() []int32 {
	if !sc.factsReady {
		sc.factsReady = true
		sc.factRel = sc.factRel[:0]
		for i := range sc.facts {
			rel := -1
			if f := &sc.facts[i]; !f.Negated {
				if id, ok := sc.comp.syms.id(f.Atom.Table); ok {
					rel = id
				}
			}
			sc.factRel = append(sc.factRel, int32(rel))
		}
	}
	return sc.factRel
}

// termEq is cq.Term.Equal without copying the terms.
func termEq(a, b *cq.Term) bool {
	return a == b || a.Equal(*b)
}

// match reports whether two target-side terms are equal under the
// disjunct's constraints: structurally, or — only possible when the
// comparisons contain an equality — entailed by the closure.
func (m *matcher) match(a, b *cq.Term) bool {
	if termEq(a, b) {
		return true
	}
	return m.sc.hasEq && m.cs.Implies(cq.Comparison{Op: cq.Eq, Left: *a, Right: *b})
}

// agrees reports whether the view atom's pinned terms match the target
// atom's (rule 1): the part of an embedding attempt that binds nothing.
func (m *matcher) agrees(v *compiledView, ap *atomProg, args []cq.Term) bool {
	if len(ap.ops) != len(args) {
		return false
	}
	for k, op := range ap.ops {
		if op.kind == opGround && !m.match(&v.grounds[op.arg], &args[k]) {
			return false
		}
	}
	return true
}

// setView points the matcher at view vi and sizes its per-view arrays.
func (m *matcher) setView(vi int32) {
	v := &m.sc.comp.views[vi]
	m.v, m.vi = v, vi
	m.slots = resized(m.slots, len(v.slotVars))
	m.images = resized(m.images, len(v.atoms))
}

// runView enumerates view vi's embeddings that touch the query, in
// cq.FindHoms order, offering each to the accumulator. It reports
// whether the whole search can stop: every needed atom has its pick.
func (m *matcher) runView(vi int32) (done bool) {
	m.setView(vi)
	v, q := m.v, m.sc.q
	for s := v.nbound; s < len(v.slotVars); s++ {
		m.slots[s] = &v.slotVars[s]
	}
	n := len(v.atoms)
	m.touchAfter = resized(m.touchAfter, n+1)
	m.touchAfter[n] = false
	for i := n - 1; i >= 0; i-- {
		m.touchAfter[i] = m.touchAfter[i+1]
		for ai := range q.Atoms {
			if m.touchAfter[i] {
				break
			}
			m.touchAfter[i] = m.sc.qRel[ai] == v.atoms[i].rel && m.agrees(v, &v.atoms[i], q.Atoms[ai].Args)
		}
	}
	m.embed(0, false)
	return m.remaining == 0
}

// embed matches view atoms i.. against the target, query atoms before
// fact atoms (the order cq.FindHoms enumerates), and reports whether
// the search is finished: nothing is left to pick. touched: an earlier
// atom landed on a query atom. A branch that cannot reach a query atom
// any more is not entered (rule 2).
func (m *matcher) embed(i int, touched bool) (stop bool) {
	v, sc := m.v, m.sc
	if i == len(v.atoms) {
		return m.leaf()
	}
	ap := &v.atoms[i]
	for ai := range sc.q.Atoms {
		if sc.qRel[ai] != ap.rel || !m.bind(ap, sc.q.Atoms[ai].Args) {
			continue
		}
		m.images[i] = int32(ai)
		if m.embed(i+1, true) {
			return true
		}
	}
	if !touched && !m.touchAfter[i+1] {
		return false
	}
	for fi, rel := range sc.factRels() {
		if rel != ap.rel || !m.bind(ap, sc.facts[fi].Atom.Args) {
			continue
		}
		m.images[i] = ^int32(fi)
		if m.embed(i+1, touched) {
			return true
		}
	}
	return false
}

// bind runs one atom program against a target atom's arguments. Slots
// need no undo trail: bind ops always write, and a program never reads
// a slot before the op that binds it.
func (m *matcher) bind(ap *atomProg, args []cq.Term) bool {
	if len(ap.ops) != len(args) {
		return false
	}
	for k, op := range ap.ops {
		switch op.kind {
		case opBind:
			m.slots[op.arg] = &args[k]
		case opCheck:
			if !m.match(m.slots[op.arg], &args[k]) {
				return false
			}
		default:
			if !m.match(&m.v.grounds[op.arg], &args[k]) {
				return false
			}
		}
	}
	return true
}

// image returns a view comparison's side under the current embedding.
func (m *matcher) image(slot int32, ground cq.Term) cq.Term {
	if slot < 0 {
		return ground
	}
	return *m.slots[slot]
}

func (m *matcher) imageComp(i int) cq.Comparison {
	vc, s := m.v.q.Comps[i], m.v.comps[i]
	return cq.Comparison{Op: vc.Op, Left: m.image(s[0], vc.Left), Right: m.image(s[1], vc.Right)}
}

// leaf completes an embedding: the view's comparisons must be entailed
// by the target's, then the embedding is offered.
func (m *matcher) leaf() (stop bool) {
	for i := range m.v.comps {
		if !m.cs.Implies(m.imageComp(i)) {
			return false
		}
	}
	m.offer()
	return m.remaining == 0
}

// offer applies the cover rules to the current embedding (slots,
// images) and folds it into the accumulator.
func (m *matcher) offer() {
	sc, v := m.sc, m.v
	clear(m.visible)
	clear(m.enforced)
	m.covered = m.covered[:0]
	m.viewCSOK = false
	for _, s := range v.head {
		if t := m.slots[s]; t.IsVar() {
			if id := sc.occ.VarID(t.Name); id >= 0 {
				m.visible.set(id)
			}
		}
	}
	for i, ai := range m.images {
		if ai >= 0 && m.atomCoverOK(&v.atoms[i], ai) {
			m.covered = append(m.covered, ai)
		}
	}
	if len(m.covered) == 0 {
		return
	}
	m.offers++
	picked := false
	for _, ai := range m.covered {
		m.seen[ai] = true
		if sc.need[ai] && m.pick[ai] < 0 && m.observable(ai) {
			m.pick[ai] = m.vi
			m.remaining--
			picked = true
		}
	}
	if picked {
		for _, ai := range m.images {
			if ai < 0 {
				sc.just = append(sc.just, ^ai)
			}
		}
	}
}

// atomCoverOK applies the per-position visibility rule for a view atom
// covering query atom ai: a position whose query-side term is
// distinguishing (constant, parameter, head/join/comparison variable)
// must be visible in the view head, pinned by the view itself
// (view-side constant or parameter), or — for comparison variables —
// constrained identically by the view's own body.
func (m *matcher) atomCoverOK(ap *atomProg, ai int32) bool {
	occ, q := m.sc.occ, m.sc.q
	base := occ.AtomOff[ai]
	for k, op := range ap.ops {
		if op.kind == opGround || op.vis {
			continue // pinned by the view, or filterable and joinable by the caller
		}
		// Invisible view position: acceptable for a pure existential
		// query variable, or for a comparison-only variable whose every
		// constraint the view itself enforces.
		id := occ.ArgVar[base+int32(k)]
		if id < 0 {
			return false
		}
		o := &occ.Vars[id]
		if o.InHead || o.NAtoms > 1 || o.MultiInAtom {
			return false
		}
		if o.InComps {
			for _, qc := range q.Comps {
				involves := qc.Left.IsVar() && qc.Left.Name == o.Name ||
					qc.Right.IsVar() && qc.Right.Name == o.Name
				if involves && !m.viewClosure().Implies(qc) {
					return false
				}
			}
			m.enforced.set(id)
		}
	}
	return true
}

// viewClosure returns the constraints the view itself enforces, mapped
// onto query terms by the current embedding; built on first use.
func (m *matcher) viewClosure() *cq.Constraints {
	if m.viewCSOK {
		return m.viewCS
	}
	if m.viewCS == nil {
		m.viewCS = cq.NewConstraints()
	} else {
		m.viewCS.Reset()
	}
	for i := range m.v.comps {
		m.viewCS.Add(m.imageComp(i))
	}
	m.viewCSOK = true
	return m.viewCS
}

// observable enforces the joint visibility condition on query atom ai
// under the current embedding: every head variable, comparison
// variable, and variable shared across atoms that occurs in ai must be
// visible, or be a comparison-only variable the view enforces.
func (m *matcher) observable(ai int32) bool {
	occ := m.sc.occ
	for _, id := range occ.ArgVar[occ.AtomOff[ai]:occ.AtomOff[ai+1]] {
		if id < 0 {
			continue
		}
		o := &occ.Vars[id]
		if !o.Distinguishing() || m.visible.has(id) {
			continue
		}
		if o.CompOnly() && m.enforced.has(id) {
			continue
		}
		return false
	}
	return true
}

// --- small atom helpers ---

func atomGround(a cq.Atom) bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

func atomsEqual(a, b cq.Atom) bool {
	if a.Table != b.Table || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// atomInstanceOf reports whether concrete atom a is an instance of
// pattern p (pattern variables bind consistently; constants and
// parameters must match, or be forced equal by the query constraints).
func atomInstanceOf(a, p cq.Atom, cs *cq.Constraints) bool {
	if a.Table != p.Table || len(a.Args) != len(p.Args) {
		return false
	}
	var bind map[string]cq.Term
	for i, pt := range p.Args {
		at := a.Args[i]
		if pt.IsVar() {
			if prev, ok := bind[pt.Name]; ok {
				if !prev.Equal(at) && !cs.Implies(cq.Comparison{Op: cq.Eq, Left: prev, Right: at}) {
					return false
				}
			} else {
				if bind == nil {
					bind = make(map[string]cq.Term)
				}
				bind[pt.Name] = at
			}
			continue
		}
		if !pt.Equal(at) && !cs.Implies(cq.Comparison{Op: cq.Eq, Left: pt, Right: at}) {
			return false
		}
	}
	return true
}
