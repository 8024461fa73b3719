package checker

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
	"repro/internal/trace"
)

// Exports for the write-retirement gate and the soundness oracles
// (retire_gate_test.go). They are checker_test tests because they drive
// internal/proxy, which imports this package.

// GenWorld is one seeded world of the cover generator (newCoverGen):
// its relations and policy, and draws of one-table reads, sessions,
// arguments and values.
type GenWorld struct {
	g    *coverGen
	gc   genCase
	join *JoinRead // nil when the world has fewer than two relations of arity two or more
}

// NewGenWorld draws the world of seed.
func NewGenWorld(seed int64) *GenWorld {
	g, gc := newCoverGen(seed)
	w := &GenWorld{g: g, gc: gc}
	var wide []int
	for rel, n := range g.arity {
		if n >= 2 {
			wide = append(wide, rel)
		}
	}
	if len(wide) >= 2 {
		g.rng.Shuffle(len(wide), func(i, j int) { wide[i], wide[j] = wide[j], wide[i] })
		w.join = newJoinRead(wide[0], g.arity[wide[0]], wide[1], g.arity[wide[1]])
	}
	return w
}

// Rand is the world's random source.
func (w *GenWorld) Rand() *rand.Rand { return w.g.rng }

// Schema declares the world's relations, r<i>(c0 .. c<arity-1>).
func (w *GenWorld) Schema(tb testing.TB) *schema.Schema { return w.g.schema(tb) }

// Checker is a checker enforcing the world's policy over sch.
func (w *GenWorld) Checker(sch *schema.Schema) *Checker { return New(w.Policy(sch)) }

// Policy is the world's generated views as a policy over sch, each its
// own named view, and JoinRead's two views. Some generated views have
// an atom of the wrong arity or a head variable no atom binds, which no
// view translated from SQL has: the checker leaves those out.
func (w *GenWorld) Policy(sch *schema.Schema) *policy.Policy {
	views := w.gc.views
	if w.join != nil {
		views = append(slices.Clip(views), w.join.views...)
	}
	return viewsPolicy(sch, views)
}

// DrawPolicy draws a fresh policy over the world's relations, its views
// drawn and named (V0, V1, ...) as the world's own are.
func (w *GenWorld) DrawPolicy(sch *schema.Schema) *policy.Policy {
	var views []*cq.Query
	for i, n := 0, 1+w.g.rng.Intn(8); i < n; i++ {
		views = append(views, w.g.query(fmt.Sprintf("V%d", i), "x", 3, 60))
	}
	return viewsPolicy(sch, views)
}

func viewsPolicy(sch *schema.Schema, views []*cq.Query) *policy.Policy {
	p := &policy.Policy{Schema: sch}
	for _, q := range views {
		p.Views = append(p.Views, &policy.View{Name: q.Name, SQL: q.String(), CQs: cq.UCQ{q}})
	}
	return p
}

// RefusedRead is a Read with a bare positional parameter as a whole
// condition: a statement that has no plan, so every path must block it.
func (w *GenWorld) RefusedRead() string {
	st := w.read()
	st.addBareCondition()
	return st.sql
}

// Read renders a read of one table: an atom of a generated view or
// template, or a fresh one, rendered as SQL with its value sites drawn
// (coverGen.statement).
func (w *GenWorld) Read() string { return w.read().sql }

func (w *GenWorld) read() genStmt {
	g := w.g
	q := g.query("", "y", 1, 50)
	if qs := append(append([]*cq.Query(nil), w.gc.views...), w.gc.tpl...); g.rng.Intn(2) == 0 {
		src := qs[g.rng.Intn(len(qs))]
		a := src.Atoms[g.rng.Intn(len(src.Atoms))]
		q = &cq.Query{Atoms: []cq.Atom{a}}
		for _, t := range a.Args {
			if t.IsVar() {
				q.Head = append(q.Head, t)
			}
		}
	}
	return g.statement([]*cq.Query{q})
}

// JoinRead is the world's Example 2.1-shaped pair of reads, over two
// views the world's policy adds: Own shows the session's own rows of
// relation b, Join each row of relation a whose c0 an own row of b
// holds at c1 (Example 2.1's V1 and V2, with b for Attendance and a for
// Events). Probe reads the session's own rows of b; Fetch reads the row
// of a at a c1 one of them holds — a read Join covers only with that
// row of b among the session's facts.
type JoinRead struct {
	Probe  string
	a, b   string // the relations
	aArity int
	views  []*cq.Query
}

func newJoinRead(a, aArity, b, bArity int) *JoinRead {
	j := &JoinRead{a: fmt.Sprintf("r%d", a), b: fmt.Sprintf("r%d", b), aArity: aArity}
	own := &cq.Query{Name: "Own", Atoms: []cq.Atom{{Table: j.b, Args: []cq.Term{cq.P("MyUId")}}}}
	join := &cq.Query{Name: "Join", Atoms: []cq.Atom{{Table: j.a}, {Table: j.b, Args: []cq.Term{cq.P("MyUId"), cq.V("z")}}}}
	for k := 1; k < bArity; k++ {
		if k > 1 {
			join.Atoms[1].Args = append(join.Atoms[1].Args, cq.V(fmt.Sprintf("w%d", k)))
		}
		own.Atoms[0].Args = append(own.Atoms[0].Args, cq.V(fmt.Sprintf("y%d", k)))
		own.Head = append(own.Head, cq.V(fmt.Sprintf("y%d", k)))
	}
	for k := 0; k < aArity; k++ {
		t := cq.V("z")
		if k > 0 {
			t = cq.V(fmt.Sprintf("t%d", k))
		}
		join.Atoms[0].Args = append(join.Atoms[0].Args, t)
		join.Head = append(join.Head, t)
	}
	j.views = []*cq.Query{own, join}
	j.Probe = fmt.Sprintf("SELECT %s FROM %s WHERE c0 = ?MyUId", columns(bArity), j.b)
	return j
}

// columns renders c0, .., c<n-1>.
func columns(n int) string {
	cols := make([]string, n)
	for k := range cols {
		cols[k] = fmt.Sprintf("c%d", k)
	}
	return strings.Join(cols, ", ")
}

// JoinRead returns the world's pair, or nil when it has none.
func (w *GenWorld) JoinRead() *JoinRead { return w.join }

// Fetch reads the row of a at the c1 of the latest row of b among
// facts, the session's usable facts; ok is false when they hold none.
func (j *JoinRead) Fetch(facts []cq.Fact) (sql string, ok bool) {
	for i := len(facts) - 1; i >= 0; i-- {
		if f := facts[i]; !f.Negated && f.Atom.Table == j.b && len(f.Atom.Args) > 1 {
			at := (&sqlparser.Literal{Value: f.Atom.Args[1].Const}).SQL()
			return fmt.Sprintf("SELECT %s FROM %s WHERE c0 = %s", columns(j.aArity), j.a, at), true
		}
	}
	return "", false
}

// Session draws a session's attributes.
func (w *GenWorld) Session() map[string]sqlvalue.Value {
	sess := map[string]sqlvalue.Value{"MyUId": sqlvalue.NewInt(int64(w.g.rng.Intn(3)))}
	for _, n := range sessionAttrs[1:] {
		if w.g.rng.Intn(3) > 0 {
			sess[n] = w.g.value()
		}
	}
	return sess
}

// Call draws the arguments of one call of a statement with needs n in
// sess: every positional value, and a named one that sess lacks or, one
// time in four, overrides.
func (w *GenWorld) Call(n sqlparser.Needs, sess map[string]sqlvalue.Value) sqlparser.Args {
	var args sqlparser.Args
	for range n.Positional {
		args.Positional = append(args.Positional, w.g.value())
	}
	for _, name := range n.Named {
		if _, ok := sess[name]; !ok || w.g.rng.Intn(4) == 0 {
			if args.Named == nil {
				args.Named = map[string]sqlvalue.Value{}
			}
			args.Named[name] = w.g.value()
		}
	}
	return args
}

// Value draws one value from the generator's pool, NULL included.
func (w *GenWorld) Value() sqlvalue.Value { return w.g.value() }

// Justification returns the justification of the allow the template
// tier answers the check with from a stored allow: the session's usable
// facts, session-generalized, that the allow's J names, in the
// session's order. ok is false when the template holds no allow under a
// justification among the session's facts; an error names an id of the
// allow's J that no usable fact of the session has.
func (c *Checker) Justification(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, tr *trace.Trace) (facts []cq.Fact, ok bool, err error) {
	st := c.newState(c.activeVersion(), sel, args, session, tr)
	defer st.release()
	if _, decided := st.bind(); decided || tr != nil && !c.deriveFacts(ctx, st) {
		return nil, false, nil
	}
	e := c.cache.Get(st.appendCacheKey(nil))
	if e == nil {
		return nil, false, nil
	}
	j := e.justifiedBy(st.factIDs)
	if j == nil {
		return nil, false, nil
	}
	var at []int
	for _, id := range j.ids {
		i := slices.Index(st.factIDs, id)
		if i < 0 {
			return nil, true, fmt.Errorf("the justification names fact id %d, which the session's usable facts lack", id)
		}
		at = append(at, i)
	}
	slices.Sort(at)
	for _, i := range at {
		facts = append(facts, st.facts[i])
	}
	return facts, true, nil
}

// CoverOver decides the check by the cover search over the given
// session-generalized facts alone, under the active policy.
func (c *Checker) CoverOver(ctx context.Context, sel *sqlparser.SelectStmt, args sqlparser.Args, session map[string]sqlvalue.Value, facts []cq.Fact) Decision {
	st := c.newState(c.activeVersion(), sel, args, session, nil)
	defer st.release()
	if d, decided := st.bind(); decided {
		return d
	}
	return c.coverAll(ctx, st.ver.comp, st.templates(), st.plan.Census(), facts, st.coverScratch())
}
