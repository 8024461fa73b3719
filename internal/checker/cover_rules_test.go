package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/sqlvalue"
)

// The edges each pruning rule of the compiled cover search could break
// (DESIGN.md §10.3), one test per edge. Cases are built in the
// conjunctive-query IR; ruleCase decides one under the independent
// reference procedure (cover_ref_test.go) and the compiled search and
// returns both.

func r(table string, args ...cq.Term) cq.Atom { return cq.Atom{Table: table, Args: args} }

func ruleCase(t *testing.T, gc genCase) (reference, compiled Decision, sc *coverScratch) {
	t.Helper()
	sc = &coverScratch{}
	reference = refDecide(gc.views, gc.tpl, gc.facts)
	return reference, decideGen(newGenChecker(t), compilePolicy("rules", gc.views), gc, sc), sc
}

func sameDecision(t *testing.T, reference, compiled Decision) {
	t.Helper()
	if a, b := fmt.Sprintf("%#v", reference), fmt.Sprintf("%#v", compiled); a != b {
		t.Fatalf("compiled search disagrees with the reference:\nreference: %s\ncompiled:  %s", a, b)
	}
}

func keptNames(sc *coverScratch) []string {
	var out []string
	for _, vi := range sc.kept {
		out = append(out, sc.comp.views[vi].q.Name)
	}
	return out
}

// Rule 1, variable side: the query names the view's pinned constant
// only through a comparison (k = 3). The atom's own term is a
// variable, so no index key can speak for it; the closure does, and the
// view must reach the search. (It embeds, and the decision is the
// reference's "no combination": k is a comparison variable no view
// exposes. A pruned view would have read "atom ... is not covered".)
func TestRule1VariableEquatedThroughComps(t *testing.T) {
	gc := genCase{
		views: []*cq.Query{
			{Name: "V3", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x"), cq.CInt(3))}},
			{Name: "V4", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x"), cq.CInt(4))}},
		},
		tpl: []*cq.Query{{
			Head:  []cq.Term{cq.V("a")},
			Atoms: []cq.Atom{r("r", cq.V("a"), cq.V("k"))},
			Comps: []cq.Comparison{{Op: cq.Eq, Left: cq.V("k"), Right: cq.CInt(3)}},
		}},
	}
	reference, compiled, sc := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if got := keptNames(sc); len(got) != 1 || got[0] != "V3" {
		t.Fatalf("kept %v, want exactly V3 (entailed equal to k; V4 is entailed unequal)", got)
	}
	if compiled.Allowed || compiled.Reason != "no combination of view embeddings determines the query's answer" {
		t.Fatalf("want the reference's block after an embedding was found, got %+v", compiled)
	}
}

// Rule 1, ground side: the query equates a parameter with a constant
// (?P = 3), so the atom's ?P matches a view that pins 3 although the
// two terms have different index keys.
func TestRule1ParameterEquatedToConstant(t *testing.T) {
	gc := genCase{
		views: []*cq.Query{
			{Name: "V3", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x"), cq.CInt(3))}},
		},
		tpl: []*cq.Query{{
			Head:  []cq.Term{cq.V("a")},
			Atoms: []cq.Atom{r("r", cq.V("a"), cq.P("P"))},
			Comps: []cq.Comparison{{Op: cq.Eq, Left: cq.P("P"), Right: cq.CInt(3)}},
		}},
	}
	reference, compiled, _ := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if !compiled.Allowed {
		t.Fatalf("?P = 3 makes V3 cover the query: %+v", compiled)
	}
	// Without the comparison the two terms are simply different.
	gc.tpl[0].Comps = nil
	reference, compiled, sc := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if compiled.Allowed || len(sc.kept) != 0 {
		t.Fatalf("V3 must be pruned when nothing equates ?P with 3: kept %v, %+v", keptNames(sc), compiled)
	}
}

// Rule 1, REAL constants: 2.0 equals the integer 2 under cq.Term.Equal
// though no exact key says so; REALs are matched by comparison on both
// sides of the index.
func TestRule1RealEqualsInteger(t *testing.T) {
	for _, sides := range [][2]cq.Term{
		{cq.CInt(2), cq.C(sqlvalue.NewReal(2))},
		{cq.C(sqlvalue.NewReal(2)), cq.CInt(2)},
	} {
		gc := genCase{
			views: []*cq.Query{{Name: "V", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x"), sides[0])}}},
			tpl:   []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r", cq.V("a"), sides[1])}}},
		}
		reference, compiled, _ := ruleCase(t, gc)
		sameDecision(t, reference, compiled)
		if !compiled.Allowed {
			t.Fatalf("view pins %v, query asks %v: equal terms must match: %+v", sides[0], sides[1], compiled)
		}
	}
}

// Rule 2, the allow it must preserve: a two-atom view embeds with one
// atom on the query and one on a trace fact (the calendar's
// event-after-probe shape).
func TestRule2EmbedsPartlyOnFacts(t *testing.T) {
	gc := genCase{
		views: []*cq.Query{{
			Name: "V2", Head: []cq.Term{cq.V("e"), cq.V("t")},
			Atoms: []cq.Atom{r("events", cq.V("e"), cq.V("t")), r("attendance", cq.P("MyUId"), cq.V("e"))},
		}},
		tpl: []*cq.Query{{
			Head:  []cq.Term{cq.V("title")},
			Atoms: []cq.Atom{r("events", cq.CInt(2), cq.V("title"))},
		}},
	}
	reference, compiled, _ := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if compiled.Allowed {
		t.Fatalf("without the attendance fact nothing covers the event: %+v", compiled)
	}
	gc.facts = []cq.Fact{{Atom: r("attendance", cq.P("MyUId"), cq.CInt(2))}}
	reference, compiled, _ = ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if !compiled.Allowed {
		t.Fatalf("history-dependent allow lost: %+v", compiled)
	}
}

// Rule 2, what it removes: a view that embeds only into facts is never
// enumerated — it yields no candidate under the reference either.
func TestRule2FactOnlyViewNeverRuns(t *testing.T) {
	gc := genCase{
		views: []*cq.Query{
			{Name: "VS", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("s", cq.V("x"))}},
			{Name: "VR", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x"))}},
		},
		tpl: []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r", cq.V("a"))}}},
	}
	for i := int64(0); i < 100; i++ {
		gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(i))})
	}
	reference, compiled, sc := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if got := keptNames(sc); len(got) != 1 || got[0] != "VR" {
		t.Fatalf("kept %v, want only VR: VS has 100 embeddings, none touching the query", got)
	}
	if sc.m.offers != 1 {
		t.Fatalf("%d covering embeddings offered, want VR's one", sc.m.offers)
	}
}

// factFirstCase: view W(x, y) :- s(y), r(x, y) against the query
// r(a, 5). Its s atom can only land on facts; per s fact s(v) the r atom
// lands on the fact r(0, v) — a fact-only embedding — except for s(5),
// the LAST s fact, where it lands on the query atom and covers it.
func factFirstCase(nfacts int64) genCase {
	gc := genCase{
		views: []*cq.Query{{
			Name: "W", Head: []cq.Term{cq.V("x"), cq.V("y")},
			Atoms: []cq.Atom{r("s", cq.V("y")), r("r", cq.V("x"), cq.V("y"))},
		}},
		tpl: []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r", cq.V("a"), cq.CInt(5))}}},
	}
	for v := int64(100); v < 100+nfacts; v++ {
		gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(v))}, cq.Fact{Atom: r("r", cq.CInt(0), cq.CInt(v))})
	}
	gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(5))})
	return gc
}

// The cover search is monotone in the facts: facts only add atoms an
// embedding may land on, so an allow stays an allow, through the same
// views, over any fact list that contains its facts — the property the
// history-free and template tiers rest on. W0 lands s on each known s
// row, and every such embedding's comparisons hold (b > 5 entails b > c
// for c <= 5), but only s(5) enforces the read's b > 5. The 64 rows
// ahead of s(5) must not keep the search from reaching it.
func TestCoverMonotoneInFacts(t *testing.T) {
	b, x, y, k := cq.V("b"), cq.V("x"), cq.V("y"), cq.V("k")
	views := []*cq.Query{{Name: "W0", Head: []cq.Term{x}, Atoms: []cq.Atom{r("r0", x, y), r("s", k)},
		Comps: []cq.Comparison{{Op: cq.Gt, Left: y, Right: k}}}}
	tpl := []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r0", cq.V("a"), b)},
		Comps: []cq.Comparison{{Op: cq.Gt, Left: b, Right: cq.CInt(5)}}}}
	c, comp := newGenChecker(t), compilePolicy("rules", views)
	for _, ahead := range []int64{0, 64} {
		var facts []cq.Fact
		for v := int64(-100); v < -100+ahead; v++ {
			facts = append(facts, cq.Fact{Atom: r("s", cq.CInt(v))})
		}
		facts = append(facts, cq.Fact{Atom: r("s", cq.CInt(5))})
		d := decideCover(c, comp, tpl, facts, &coverScratch{})
		if !d.Allowed || len(d.Views) != 1 || d.Views[0] != "W0" {
			t.Fatalf("%d rows ahead of s(5): %+v, want an allow through W0", ahead, d)
		}
		sameDecision(t, refDecide(views, tpl, facts), d)
	}
}

// NULL equals nothing, itself included. A view whose comparison x >= x
// keeps NULL rows out does not show the NULL row a read asks for, so
// it does not cover it. And a NULL value stays a constant in a decision
// template, though a session attribute is NULL too: a template with
// the attribute's parameter would answer for sessions where it is not.
func TestNullComparesToNothing(t *testing.T) {
	x, null := cq.V("x"), cq.C(sqlvalue.NewNull())
	gc := genCase{
		views: []*cq.Query{{Name: "V", Head: []cq.Term{x}, Atoms: []cq.Atom{r("r", x)},
			Comps: []cq.Comparison{{Op: cq.Ge, Left: x, Right: x}}}},
		tpl: []*cq.Query{{Head: []cq.Term{null}, Atoms: []cq.Atom{r("r", null)}}},
	}
	reference, compiled, _ := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if compiled.Allowed {
		t.Fatalf("V keeps the NULL row out, so it cannot cover r(NULL): %+v", compiled)
	}
	sess := map[string]sqlvalue.Value{"Org": sqlvalue.NewNull()}
	if g := generalized([]string{"Org"}, sess, sqlvalue.NewNull()); !g.IsConst() {
		t.Fatalf("NULL generalized to %v, want the constant", g)
	}
}

// A search far larger than the generator's: 64 join views over 128
// known rows, every embedding enumerated. It blocks when no view
// exposes the join column, and allows through the one view that does
// wherever it sits in policy order — the search stops at that view, not
// before it.
func TestLargeJoinSearch(t *testing.T) {
	for _, coverAt := range []int{-1, 0, 63} {
		reference, compiled, _ := ruleCase(t, joinCase(64, 64, coverAt))
		sameDecision(t, reference, compiled)
		if compiled.Allowed != (coverAt >= 0) {
			t.Errorf("covering view at %d: %+v", coverAt, compiled)
		}
	}
}

// A canceled context stops the search between views and is reported as
// the never-cached canceled verdict.
func TestCoverCanceledBetweenViews(t *testing.T) {
	gc := factFirstCase(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var occ cq.Census
	occ.Build(gc.tpl[0])
	d := newGenChecker(t).coverAll(ctx, compilePolicy("rules", gc.views), gc.tpl, []cq.Census{occ}, gc.facts, &coverScratch{})
	if d.Allowed || d.Reason != canceledDecision(ctx).Reason {
		t.Fatalf("canceled search must block with the canceled verdict: %+v", d)
	}
}
