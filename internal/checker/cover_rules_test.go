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
	reference = refDecide(gc.views, gc.tpl, gc.facts, maxHomsPerView)
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

// capCase: view W(x, y) :- s(y), r(x, y) against the query r(a, 5).
// Its s atom can only land on facts; per s fact s(v) the r atom lands
// on the fact r(0, v) — a fact-only embedding — except for s(5), the
// LAST s fact, where it lands on the query atom and covers it. The
// reference enumerates the fact-only embeddings first.
func capCase(nfacts int64) genCase {
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

// The stated exception to byte-identity (DESIGN.md §10.3):
// maxHomsPerView counts only embeddings that touch the query. Where the
// reference spends its 64 on fact-only embeddings and never reaches the
// covering one, the compiled search reaches it. The extra embedding is
// a genuine homomorphism: the reference finds it too once its cap is
// out of the way.
func TestCapCountsOnlyEmbeddingsTouchingTheQuery(t *testing.T) {
	// Under the cap the two agree.
	reference, compiled, _ := ruleCase(t, capCase(10))
	sameDecision(t, reference, compiled)
	if !compiled.Allowed {
		t.Fatalf("W covers r(a, 5) through s(5): %+v", compiled)
	}

	gc := capCase(70) // 70 fact-only embeddings ahead of the covering one
	reference, compiled, _ = ruleCase(t, gc)
	if reference.Allowed {
		t.Fatalf("the reference's cap should be spent on fact-only embeddings: %+v", reference)
	}
	if !compiled.Allowed || len(compiled.Views) != 1 || compiled.Views[0] != "W" {
		t.Fatalf("the compiled search must reach the covering embedding: %+v", compiled)
	}
	sameDecision(t, refDecide(gc.views, gc.tpl, gc.facts, 1000), compiled)
}

// More than 64 embeddings that all touch the query: both searches keep
// the same first 64, in the same order.
func TestCapSameFirstEmbeddings(t *testing.T) {
	// X(x) :- r(x), s(y): one embedding per s fact, each covering r(a).
	gc := genCase{
		views: []*cq.Query{
			{Name: "X", Head: []cq.Term{cq.V("x")}, Atoms: []cq.Atom{r("r", cq.V("x")), r("s", cq.V("y"))}},
		},
		tpl: []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r", cq.V("a")), r("t", cq.V("a"))}}},
	}
	for i := int64(0); i < 200; i++ {
		gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(i))})
	}
	reference, compiled, sc := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if sc.m.count != 64 {
		t.Fatalf("view X enumerated %d embeddings, want the cap's 64", sc.m.count)
	}
}

// A view that reaches its cap on embeddings into facts keeps those facts
// in the allow's justification. W0 lands s on each known s row; each
// embedding is counted (b > 5 entails b > c for c <= 5), but only s(5)
// enforces the query's b > 5, and 64 rows come first. So W0 covers
// nothing, and W1, which needs s(5), covers r0(a, b). Without the 64
// rows, W0 would reach s(5) and cover the atom itself: the search over
// J would name another view.
func TestJustificationKeepsCappedViews(t *testing.T) {
	b, x, y, k := cq.V("b"), cq.V("x"), cq.V("y"), cq.V("k")
	gc := genCase{
		views: []*cq.Query{
			{Name: "W0", Head: []cq.Term{x}, Atoms: []cq.Atom{r("r0", x, y), r("s", k)},
				Comps: []cq.Comparison{{Op: cq.Gt, Left: y, Right: k}}},
			{Name: "W1", Head: []cq.Term{x, y}, Atoms: []cq.Atom{r("r0", x, y), r("s", cq.CInt(5))}},
		},
		tpl: []*cq.Query{{Head: []cq.Term{cq.V("a")}, Atoms: []cq.Atom{r("r0", cq.V("a"), b)},
			Comps: []cq.Comparison{{Op: cq.Gt, Left: b, Right: cq.CInt(5)}}}},
	}
	for c := int64(-100); c < -100+maxHomsPerView; c++ {
		gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(c))})
	}
	gc.facts = append(gc.facts, cq.Fact{Atom: r("s", cq.CInt(5))})
	reference, compiled, sc := ruleCase(t, gc)
	sameDecision(t, reference, compiled)
	if !compiled.Allowed || len(compiled.Views) != 1 || compiled.Views[0] != "W1" {
		t.Fatalf("W0's cap must be spent before s(5), and W1 cover: %+v", compiled)
	}
	if just := justFacts(sc, gc.facts); len(just) != len(gc.facts) {
		t.Fatalf("the justification keeps %d of the %d facts: %v", len(just), len(gc.facts), just)
	}
	checkJustification(t, newGenChecker(t), compilePolicy("rules", gc.views), gc.tpl, gc.facts, "capped view")
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
	gc := capCase(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var occ cq.Census
	occ.Build(gc.tpl[0])
	d := newGenChecker(t).coverAll(ctx, compilePolicy("rules", gc.views), gc.tpl, []cq.Census{occ}, gc.facts, &coverScratch{})
	if d.Allowed || d.Reason != canceledDecision(ctx).Reason {
		t.Fatalf("canceled search must block with the canceled verdict: %+v", d)
	}
}
