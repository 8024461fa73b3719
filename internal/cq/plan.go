package cq

// Statement plans. A decision over `SELECT … WHERE Owner = ? AND Id = 7`
// used to bind the arguments into a copy of the AST and translate that
// copy, every time. Nothing about the translation depends on the values
// except a handful of steps at its very end, so a plan runs the
// translator ONCE on the parameter-form statement with every value site
// — `?`, `?name` and literals alike — replaced by a numbered slot, and
// keeps what came out: per-disjunct templates, where their slots sit,
// each disjunct's variable census, and which trace facts an answer can
// yield (facts.go). A decision then copies the term arrays and patches
// the slot sites (Instantiate).
//
// The value-dependent steps, all of them in normalizeEq, all redone per
// instantiation (instComps):
//
//   - a comparison both of whose sides are slots is ground once values
//     are known: it is dropped when it holds, kept (a contradiction the
//     solver will see) when it does not, and an = / <> is oriented by
//     the values' keys;
//   - comparisons that differ only in their slots collapse when the
//     slots carry the same value.
//
// Everything else normalizeEq does is structural once no two
// non-variable terms are ever merged (each equivalence class keeps the
// first slot it met as representative, and a second one becomes a
// ground comparison between the two): equal values in two slots change
// nothing but which of two identical constants is written.
//
// A statement whose parameter form does not translate (anything
// outside the fragment, and a bare parameter used as a whole condition,
// whatever its value) gets a refused plan: it keeps the translation
// error, and every call of the statement is blocked with it. Nothing is
// bound or translated per call, for any statement.

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// planCacheMax bounds a translator's plan cache; past it an arbitrary
// plan is evicted (a workload's statement population is far below it).
const planCacheMax = 4096

type slotKind uint8

const (
	slotLiteral slotKind = iota
	slotPositional
	slotNamed
)

// slotSource says where a slot's value comes from.
type slotSource struct {
	kind  slotKind
	lit   sqlvalue.Value
	index int
	name  string
}

// slotTable numbers the value sites the translator meets: one slot per
// literal node, per positional index and per parameter name.
type slotTable struct {
	slots []slotSource
	lits  map[*sqlparser.Literal]int
	pos   map[int]int
	named map[string]int
}

// slotTerm is slot n's placeholder in a template: a parameter whose
// name no SQL text can spell.
func slotTerm(n int) Term { return P("\x00" + strconv.Itoa(n)) }

// slotOf returns the slot a placeholder stands for, or -1.
func slotOf(t Term) int32 {
	if t.Kind != KindParam || len(t.Name) == 0 || t.Name[0] != 0 {
		return -1
	}
	n, _ := strconv.Atoi(t.Name[1:])
	return int32(n)
}

func (s *slotTable) add(src slotSource) int {
	s.slots = append(s.slots, src)
	return len(s.slots) - 1
}

func (s *slotTable) literal(x *sqlparser.Literal) Term {
	n, ok := s.lits[x]
	if !ok {
		n = s.add(slotSource{kind: slotLiteral, lit: x.Value})
		s.lits[x] = n
	}
	return slotTerm(n)
}

func (s *slotTable) param(x *sqlparser.Param) Term {
	if x.Name != "" {
		n, ok := s.named[x.Name]
		if !ok {
			n = s.add(slotSource{kind: slotNamed, name: x.Name})
			s.named[x.Name] = n
		}
		return slotTerm(n)
	}
	n, ok := s.pos[x.Index]
	if !ok {
		n = s.add(slotSource{kind: slotPositional, index: x.Index})
		s.pos[x.Index] = n
	}
	return slotTerm(n)
}

// StmtPlan is what one statement translates to, computed once.
type StmtPlan struct {
	// Shape identifies the templates and their slot numbering: plans of
	// one translator with equal shapes instantiate identically from equal
	// slot values, whatever text, placeholder style or literals their
	// statements were written with. Never reused within a translator.
	Shape uint64

	slots []slotSource
	// params are the statement's distinct parameters in the order Bind
	// meets them: what a call must supply, slots or not (a LIMIT ? has no
	// slot and still needs its value).
	params []sqlparser.Param
	// refusal is the block reason of every call of a statement whose
	// parameter form does not translate; such a plan has no templates.
	refusal string

	disj   []planDisjunct
	census []Census       // parallel to disj
	facts  *FactExtractor // nil: no answer yields a fact (facts.go)
	// Arena sizes of one instantiation.
	nTerms, nAtoms, nComps int
}

type termSite struct{ at, slot int32 }

type planDisjunct struct {
	// tmpl holds the disjunct with placeholders at its slot sites. Its
	// HeadNames and — when no comparison has a slot — its Comps are
	// shared by every instantiation, read-only.
	tmpl Query
	// flat is tmpl's head followed by every atom's arguments, the layout
	// an instantiation copies in one go; sites are the slots in it.
	flat  []Term
	sites []termSite
	// comps[i] gives the slots of tmpl.Comps[i]'s sides, -1 for a
	// variable.
	comps   [][2]int32
	slotted bool // some comparison has a slot side
}

// Refusal returns the reason every call of the statement is blocked
// with when its parameter form does not translate: "blocked
// conservatively: " and the translation error. It is empty for a
// statement with templates.
func (p *StmtPlan) Refusal() string { return p.refusal }

// Disjuncts is the number of templates an instantiation yields.
func (p *StmtPlan) Disjuncts() int { return len(p.disj) }

// Census returns the per-disjunct variable censuses, shared and
// read-only: slots are never variables, so one census serves every
// instantiation.
func (p *StmtPlan) Census() []Census { return p.census }

// CachedPlan returns the statement's plan if Plan has compiled it, or
// nil: the lookup half of Plan, which never compiles.
func (tr *Translator) CachedPlan(sel *sqlparser.SelectStmt) *StmtPlan {
	tr.mu.RLock()
	p := tr.plans[sel]
	tr.mu.RUnlock()
	return p
}

// Plan returns the statement's plan, compiling it on first use. Plans
// are keyed by the statement pointer — sqlparser's parse cache hands out
// one shared statement per SQL text — and the entry keeps the statement
// alive, so an address cannot be reused while its plan is cached. A
// statement parsed outside that cache is planned on every call. A
// refused plan has shape 0, which no planned statement shares.
func (tr *Translator) Plan(sel *sqlparser.SelectStmt) *StmtPlan {
	if p := tr.CachedPlan(sel); p != nil {
		return p
	}
	// Compiled outside the lock: first users racing on one statement may
	// each compile it, and all but one result is dropped.
	p, shape := tr.compilePlan(sel)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if q := tr.plans[sel]; q != nil {
		return q
	}
	if tr.plans == nil {
		tr.plans = make(map[*sqlparser.SelectStmt]*StmtPlan)
		tr.shapes = make(map[string]uint64)
	}
	if len(tr.plans) >= planCacheMax {
		for old := range tr.plans {
			delete(tr.plans, old)
			break
		}
	}
	if p.refusal == "" {
		if len(tr.shapes) >= planCacheMax {
			// Ids only ever grow, so a shape interned again after this gets a
			// new one: its older plans stop sharing with it, nothing collides.
			tr.shapes = make(map[string]uint64)
		}
		id, ok := tr.shapes[shape]
		if !ok {
			tr.nextShape++
			id = tr.nextShape
			tr.shapes[shape] = id
		}
		p.Shape = id
	}
	tr.plans[sel] = p
	return p
}

// compilePlan translates the parameter form of sel and lays the result
// out for instantiation. The second result renders the templates with
// their placeholders: the shape's identity.
func (tr *Translator) compilePlan(sel *sqlparser.SelectStmt) (*StmtPlan, string) {
	p := &StmtPlan{}
	for _, prm := range sqlparser.Params(sel) {
		if !slices.ContainsFunc(p.params, func(q sqlparser.Param) bool { return q.Name == prm.Name && q.Index == prm.Index }) {
			p.params = append(p.params, *prm)
		}
	}
	st := &slotTable{
		lits:  make(map[*sqlparser.Literal]int),
		pos:   make(map[int]int),
		named: make(map[string]int),
	}
	ucq, err := tr.translateSelect(sel, st)
	if err != nil {
		p.refusal = "blocked conservatively: " + err.Error()
		return p, ""
	}
	p.slots = st.slots
	var shape strings.Builder
	p.disj = make([]planDisjunct, len(ucq))
	p.census = make([]Census, len(ucq))
	for i, q := range ucq {
		d := &p.disj[i]
		d.tmpl = *q
		d.flat = append(d.flat, q.Head...)
		for _, a := range q.Atoms {
			d.flat = append(d.flat, a.Args...)
		}
		for at, t := range d.flat {
			if s := slotOf(t); s >= 0 {
				d.sites = append(d.sites, termSite{at: int32(at), slot: s})
			}
		}
		for _, c := range q.Comps {
			sides := [2]int32{slotOf(c.Left), slotOf(c.Right)}
			d.comps = append(d.comps, sides)
			d.slotted = d.slotted || sides[0] >= 0 || sides[1] >= 0
		}
		p.census[i].Build(q)
		p.nTerms += len(d.flat)
		p.nAtoms += len(q.Atoms)
		p.nComps += len(q.Comps)
		shape.WriteString(q.String())
		if q.AggApprox {
			shape.WriteString("|agg")
		}
		shape.WriteByte('\n')
	}
	if len(ucq) == 1 {
		p.facts = compileFacts(ucq[0], limited(sel))
	}
	return p, shape.String()
}

// Resolve fills dst with the slot values for one call: literals from
// the statement, positional values from args, named ones from
// args.Named and then defaults (the checker passes the session, whose
// attributes a query may name). It fails exactly when sqlparser.Bind
// fails on the same arguments, with Bind's error.
func (p *StmtPlan) Resolve(dst []sqlvalue.Value, args sqlparser.Args, defaults map[string]sqlvalue.Value) ([]sqlvalue.Value, error) {
	dst = dst[:0]
	named := func(name string) (sqlvalue.Value, bool) {
		v, ok := args.Named[name]
		if !ok {
			v, ok = defaults[name]
		}
		return v, ok
	}
	for i := range p.params {
		prm := &p.params[i]
		ok := prm.Index < len(args.Positional)
		if prm.Name != "" {
			_, ok = named(prm.Name)
		}
		if !ok {
			return dst, (*sqlparser.NoValueError)(prm)
		}
	}
	for i := range p.slots {
		switch s := &p.slots[i]; s.kind {
		case slotLiteral:
			dst = append(dst, s.lit)
		case slotPositional:
			dst = append(dst, args.Positional[s.index])
		default:
			v, _ := named(s.name) // checked above
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// groundStep decides a comparison whose sides are both slots, as
// normalizeEq decides one between two constants: dropped when it holds,
// else kept, an = / <> with its sides ordered by key.
func groundStep(op CompOp, l, r sqlvalue.Value) (keep, swap bool) {
	c := Comparison{Op: op, Left: C(l), Right: C(r)}
	if groundHolds(c) || op == Eq && sqlvalue.Identical(l, r) {
		return false, false
	}
	return true, (op == Eq || op == Ne) && c.Left.Key() > c.Right.Key()
}

// AppendOutcomes appends one byte per ground step of the plan under the
// given slot values. Together with the plan's shape and the slot terms
// an instantiation writes, the outcomes determine the instantiated
// templates, so a cache key built from the three identifies them — also
// when two slots are written as parameters and their values are not in
// the key.
func (p *StmtPlan) AppendOutcomes(buf []byte, raw []sqlvalue.Value) []byte {
	for i := range p.disj {
		d := &p.disj[i]
		if !d.slotted {
			continue
		}
		for ci, s := range d.comps {
			if s[0] >= 0 && s[1] >= 0 {
				if keep, _ := groundStep(d.tmpl.Comps[ci].Op, raw[s[0]], raw[s[1]]); keep {
					buf = append(buf, 'k')
				} else {
					buf = append(buf, 'd')
				}
			}
		}
	}
	return buf
}

// Instantiation is the storage of one instantiation. Reused through Reset,
// it makes instantiating allocation-free.
type Instantiation struct {
	ptrs  []*Query
	qs    []Query
	terms []Term
	atoms []Atom
	comps []Comparison
}

// Reset drops every reference the instance holds, keeping capacity.
func (in *Instantiation) Reset() {
	clear(in.ptrs)
	clear(in.qs)
	clear(in.terms)
	clear(in.atoms)
	clear(in.comps)
	in.ptrs, in.qs, in.terms, in.atoms, in.comps = in.ptrs[:0], in.qs[:0], in.terms[:0], in.atoms[:0], in.comps[:0]
}

func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Instantiate builds the plan's templates for one slot vector into in:
// raw are the values (Resolve), terms what to write at each slot's
// sites — the constant itself, or the parameter a caller generalizes it
// to. The result is what TranslateSelect returns for the bound
// statement, with terms[i] in place of raw[i]. It lives in in, valid
// until in is Reset or reused.
func (p *StmtPlan) Instantiate(in *Instantiation, raw []sqlvalue.Value, terms []Term) []*Query {
	in.ptrs = sized(in.ptrs, len(p.disj))
	in.qs = sized(in.qs, len(p.disj))
	in.terms = sized(in.terms, p.nTerms)
	in.atoms = sized(in.atoms, p.nAtoms)
	in.comps = slices.Grow(in.comps[:0], p.nComps)
	arena, atoms := in.terms, in.atoms
	for i := range p.disj {
		d := &p.disj[i]
		n := len(d.flat)
		flat := arena[:n:n]
		arena = arena[n:]
		copy(flat, d.flat)
		for _, s := range d.sites {
			flat[s.at] = terms[s.slot]
		}
		nh := len(d.tmpl.Head)
		q := &in.qs[i]
		*q = Query{Head: flat[:nh:nh], HeadNames: d.tmpl.HeadNames, Comps: d.tmpl.Comps, AggApprox: d.tmpl.AggApprox}
		na := len(d.tmpl.Atoms)
		q.Atoms = atoms[:na:na]
		atoms = atoms[na:]
		off := nh
		for ai, a := range d.tmpl.Atoms {
			w := len(a.Args)
			q.Atoms[ai] = Atom{Table: a.Table, Args: flat[off : off+w : off+w]}
			off += w
		}
		if d.slotted {
			q.Comps = instComps(in, d, raw, terms)
		}
		in.ptrs[i] = q
	}
	return in.ptrs
}

// instComps redoes normalizeEq's value-dependent steps for one
// disjunct's comparisons (see the file comment).
func instComps(in *Instantiation, d *planDisjunct, raw []sqlvalue.Value, terms []Term) []Comparison {
	start := len(in.comps)
next:
	for ci, c := range d.tmpl.Comps {
		l, r := d.comps[ci][0], d.comps[ci][1]
		if l >= 0 && r >= 0 {
			keep, swap := groundStep(c.Op, raw[l], raw[r])
			if !keep {
				continue
			}
			if swap {
				l, r = r, l
			}
		}
		if l >= 0 {
			c.Left = terms[l]
		}
		if r >= 0 {
			c.Right = terms[r]
		}
		for _, e := range in.comps[start:] {
			if e.Op == c.Op && e.Left.Equal(c.Left) && e.Right.Equal(c.Right) {
				continue next
			}
		}
		in.comps = append(in.comps, c)
	}
	return in.comps[start:len(in.comps):len(in.comps)]
}
