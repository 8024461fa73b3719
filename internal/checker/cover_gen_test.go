package checker

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/sqlvalue"
)

// A seeded generator of small cover-search problems: a policy of view
// disjuncts, a decision template and a fact set, built directly in the
// conjunctive-query IR so it reaches shapes the SQL front door
// normalizes away (variables equated through comparisons, REAL
// constants beside integers, head variables no atom binds, atoms of
// mismatched arity). Everything is drawn from tiny pools so embeddings
// are common rather than vanishing.

type genCase struct {
	views []*cq.Query
	tpl   []*cq.Query
	facts []cq.Fact
}

type coverGen struct {
	rng   *rand.Rand
	arity []int // per relation
}

func (g *coverGen) ground() cq.Term {
	switch n := g.rng.Intn(20); {
	case n < 12:
		return cq.CInt(int64(g.rng.Intn(3)))
	case n < 16:
		return cq.P([]string{"P", "Q"}[g.rng.Intn(2)])
	case n < 18:
		return cq.C(sqlvalue.NewReal(float64(g.rng.Intn(3)))) // equals the integer of the same value
	case n < 19:
		return cq.C(sqlvalue.NewReal(0.5))
	default:
		return cq.CText("a")
	}
}

func (g *coverGen) term(prefix string, pVar int) cq.Term {
	if g.rng.Intn(100) < pVar {
		return cq.V(fmt.Sprintf("%s%d", prefix, g.rng.Intn(4)))
	}
	return g.ground()
}

func (g *coverGen) atom(prefix string, pVar int) cq.Atom {
	rel := g.rng.Intn(len(g.arity))
	n := g.arity[rel]
	if g.rng.Intn(40) == 0 {
		n++ // an atom of the wrong arity matches nothing
	}
	a := cq.Atom{Table: fmt.Sprintf("r%d", rel), Args: make([]cq.Term, n)}
	for k := range a.Args {
		a.Args[k] = g.term(prefix, pVar)
	}
	return a
}

// query builds one conjunctive query over variables prefix0..prefix3.
func (g *coverGen) query(name, prefix string, maxAtoms, pVar int) *cq.Query {
	q := &cq.Query{Name: name}
	for n := 1 + g.rng.Intn(maxAtoms); n > 0; n-- {
		q.Atoms = append(q.Atoms, g.atom(prefix, pVar))
	}
	var vars []cq.Term
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				vars = append(vars, t)
			}
		}
	}
	for _, v := range vars {
		if g.rng.Intn(3) > 0 {
			q.Head = append(q.Head, v)
		}
	}
	if g.rng.Intn(25) == 0 {
		q.Head = append(q.Head, cq.V(prefix+"9")) // a head variable no atom binds
	}
	for n := g.rng.Intn(3); n > 0 && len(vars) > 0; n-- {
		left := vars[g.rng.Intn(len(vars))]
		right := g.ground()
		if g.rng.Intn(3) == 0 {
			right = vars[g.rng.Intn(len(vars))]
		}
		op := []cq.CompOp{cq.Eq, cq.Eq, cq.Ne, cq.Lt, cq.Le, cq.Gt, cq.Ge}[g.rng.Intn(7)]
		q.Comps = append(q.Comps, cq.Comparison{Op: op, Left: left, Right: right})
	}
	if g.rng.Intn(6) == 0 {
		// A parameter and a constant equated by the query itself.
		q.Comps = append(q.Comps, cq.Comparison{Op: cq.Eq, Left: cq.P("P"), Right: cq.CInt(int64(g.rng.Intn(3)))})
	}
	return q
}

// newCoverGen seeds a generator and draws its relations and policy.
func newCoverGen(seed int64) (*coverGen, genCase) {
	g := &coverGen{rng: rand.New(rand.NewSource(seed))}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.arity = append(g.arity, 1+g.rng.Intn(3))
	}
	var gc genCase
	for i, n := 0, 1+g.rng.Intn(8); i < n; i++ {
		gc.views = append(gc.views, g.query(fmt.Sprintf("V%d", i), "x", 3, 60))
	}
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		gc.tpl = append(gc.tpl, g.query("", "y", 3, 50))
	}
	return g, gc
}

func newGenCase(seed int64) genCase {
	g, gc := newCoverGen(seed)
	for n := g.rng.Intn(7); n > 0; n-- {
		// Positive facts are ground rows; a negative fact is a pattern.
		f := cq.Fact{Atom: g.atom("z", 0)}
		if g.rng.Intn(8) == 0 {
			f = cq.Fact{Atom: g.atom("z", 30), Negated: true}
		}
		gc.facts = append(gc.facts, f)
	}
	return gc
}

func (gc genCase) String() string {
	s := ""
	for _, v := range gc.views {
		s += "view  " + v.String() + "\n"
	}
	for _, q := range gc.tpl {
		s += "query " + q.String() + "\n"
	}
	for _, f := range gc.facts {
		s += "fact  " + f.String() + "\n"
	}
	return s
}

// newGenChecker is a checker over one (irrelevant) schema; generated
// cases bring their own compiled plan.
func newGenChecker(tb testing.TB) *Checker {
	return New(policy.MustNew(calendarSchema(tb), nil))
}

// decideGen runs coverAll for a generated case on the given scratch.
func decideGen(c *Checker, comp *compiledPolicy, gc genCase, sc *coverScratch) Decision {
	return decideCover(c, comp, gc.tpl, gc.facts, sc)
}

// decideCover runs coverAll for templates over facts on the given
// scratch.
func decideCover(c *Checker, comp *compiledPolicy, tpl []*cq.Query, facts []cq.Fact, sc *coverScratch) Decision {
	occs := make([]cq.Census, len(tpl))
	for i, q := range tpl {
		occs[i].Build(q)
	}
	return c.coverAll(context.Background(), comp, tpl, occs, facts, sc)
}

// justFacts returns the facts of the justification coverAll left in sc,
// in their order in facts.
func justFacts(sc *coverScratch, facts []cq.Fact) []cq.Fact {
	at := slices.Clone(sc.just)
	slices.Sort(at)
	var out []cq.Fact
	for _, i := range slices.Compact(at) {
		out = append(out, facts[i])
	}
	return out
}

// checkJustification decides tpl over facts with the compiled search
// and, for an allow that has facts, again over its justification alone:
// the two Decisions must be byte-identical.
func checkJustification(t *testing.T, c *Checker, comp *compiledPolicy, tpl []*cq.Query, facts []cq.Fact, label string) {
	t.Helper()
	sc := &coverScratch{}
	d := decideCover(c, comp, tpl, facts, sc)
	if !d.Allowed || len(facts) == 0 {
		return
	}
	just := justFacts(sc, facts)
	if dJ, dF := fmt.Sprintf("%#v", decideCover(c, comp, tpl, just, &coverScratch{})), fmt.Sprintf("%#v", d); dJ != dF {
		t.Fatalf("%s: the search over the allow's justification decides otherwise:\nall facts:     %s\njustification: %s\nfacts %v\njustification %v", label, dF, dJ, facts, just)
	}
}

// checkGenCase asserts the parity contract on one generated case: the
// compiled search decides byte-identically to the independent reference
// procedure (cover_ref_test.go), an allow that has facts decides the
// same over its justification alone, and every view the index kept out
// of a disjunct's search yields no covering candidate under that
// reference.
func checkGenCase(t *testing.T, c *Checker, gc genCase) Decision {
	t.Helper()
	comp := compilePolicy("gen", gc.views)
	dC := decideGen(c, comp, gc, &coverScratch{})
	dR := refDecide(gc.views, gc.tpl, gc.facts, maxHomsPerView)
	if gC, gR := fmt.Sprintf("%#v", dC), fmt.Sprintf("%#v", dR); gC != gR {
		t.Fatalf("searches disagree:\ncompiled:  %s\nreference: %s\n%s", gC, gR, gc)
	}
	checkJustification(t, c, comp, gc.tpl, gc.facts, gc.String())

	for i, q := range gc.tpl {
		var occ cq.Census
		occ.Build(q)
		var sc coverScratch
		before := sc.epoch
		c.coverDisjunct(context.Background(), &sc, comp, q, &occ, gc.facts)
		if sc.epoch == before {
			continue // decided before any search: nothing was pruned
		}
		kept := map[int32]bool{}
		for _, vi := range sc.kept {
			kept[vi] = true
		}
		target := &cq.Query{Atoms: append([]cq.Atom(nil), q.Atoms...), Comps: q.Comps}
		for _, f := range gc.facts {
			if !f.Negated {
				target.Atoms = append(target.Atoms, f.Atom)
			}
		}
		for vi := range comp.views {
			if kept[int32(vi)] {
				continue
			}
			if v := comp.views[vi].q; len(refCandidates(v, q, target, refCensus(q), maxHomsPerView)) > 0 {
				t.Fatalf("disjunct %d: the index pruned view %s, which covers under the reference\n%s", i, v.Name, gc)
			}
		}
	}
	return dR
}

// TestCoverParityGenerated runs the parity contract over a fixed block
// of seeds (the fuzz target below explores beyond it).
func TestCoverParityGenerated(t *testing.T) {
	c := newGenChecker(t)
	allowed := 0
	const cases = 4000
	for seed := int64(0); seed < cases; seed++ {
		if checkGenCase(t, c, newGenCase(seed)).Allowed {
			allowed++
		}
	}
	// A generator that only ever produces blocks would pin nothing.
	if allowed < cases/20 || allowed > cases*19/20 {
		t.Fatalf("generator is lopsided: %d of %d cases allowed", allowed, cases)
	}
	t.Logf("%d generated cases, %d allowed", cases, allowed)
}

// FuzzCoverParity explores generator seeds under the same contract.
func FuzzCoverParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	c := newGenChecker(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkGenCase(t, c, newGenCase(seed))
	})
}

// joinCase is a large search: nviews two-atom join views with no
// pinned term over nfacts known rows per relation, against a two-atom
// join query. Views hide the join column, so every embedding is
// enumerated and none covers — except view coverAt (if >= 0), whose
// head exposes everything.
func joinCase(nviews, nfacts, coverAt int) genCase {
	var gc genCase
	for i := 0; i < nviews; i++ {
		head := []cq.Term{cq.V("x")}
		if i == coverAt {
			head = []cq.Term{cq.V("x"), cq.V("y"), cq.V("z")}
		}
		gc.views = append(gc.views, &cq.Query{
			Name: fmt.Sprintf("W%03d", i), Head: head,
			Atoms: []cq.Atom{
				{Table: "r0", Args: []cq.Term{cq.V("x"), cq.V("y")}},
				{Table: "r1", Args: []cq.Term{cq.V("y"), cq.V("z")}},
			},
		})
	}
	gc.tpl = []*cq.Query{{
		Head: []cq.Term{cq.V("a"), cq.V("b")},
		Atoms: []cq.Atom{
			{Table: "r0", Args: []cq.Term{cq.V("a"), cq.V("b")}},
			{Table: "r1", Args: []cq.Term{cq.V("b"), cq.V("c")}},
		},
	}}
	for i := 0; i < nfacts; i++ {
		gc.facts = append(gc.facts,
			cq.Fact{Atom: cq.Atom{Table: "r0", Args: []cq.Term{cq.CInt(int64(i)), cq.CInt(int64(i % 4))}}},
			cq.Fact{Atom: cq.Atom{Table: "r1", Args: []cq.Term{cq.CInt(int64(i % 4)), cq.CInt(int64(i))}}})
	}
	return gc
}
