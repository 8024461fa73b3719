package extract

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// MinedEntry is one observed query in a black-box trace.
type MinedEntry struct {
	SQL     string
	Args    []sqlvalue.Value
	Columns []string
	Rows    [][]sqlvalue.Value
}

// Sample is one observed handler invocation: the principal's session
// attributes, the request parameters, and the queries the handler
// issued. Params are not used by mining itself but let a GuardProber
// replay the invocation.
type Sample struct {
	Handler string
	Session map[string]sqlvalue.Value
	Params  map[string]sqlvalue.Value
	Entries []MinedEntry
}

// GuardProber re-runs a sample's handler against a database mutated so
// that guard entry guardIdx returns no rows, and reports the SQL
// statements the re-run issued. Mining uses it to confirm that a
// candidate guard is causal (§3.2.2's active discovery): if the
// guarded query is still issued without the guard row, the correlation
// was coincidental.
type GuardProber func(s Sample, guardIdx int) ([]string, error)

// MineOptions configure black-box extraction.
type MineOptions struct {
	// SessionParam maps session attribute names to policy parameter
	// names (e.g. "user_id" -> "MyUId").
	SessionParam map[string]string
	// UseHints generalizes constants in columns marked Opaque in the
	// schema even when they don't vary across samples.
	UseHints bool
	// InferGuards enables access-check inference from value
	// correlations with earlier queries.
	InferGuards bool
	// Prober, when set, actively confirms inferred guards.
	Prober GuardProber
	// MinimizePolicy drops views subsumed by others.
	MinimizePolicy bool
}

// DefaultMineOptions enables everything except probing (which needs
// an app runner).
func DefaultMineOptions() MineOptions {
	return MineOptions{UseHints: true, InferGuards: true, MinimizePolicy: true}
}

// Mine derives a draft policy from concrete traces (the
// language-agnostic extraction of §3.2.2).
func Mine(s *schema.Schema, samples []Sample, opts MineOptions) (*policy.Policy, error) {
	m := &miner{schema: s, opts: opts, tr: &cq.Translator{Schema: s}}
	byHandler := map[string][]Sample{}
	var order []string
	for _, sm := range samples {
		if _, ok := byHandler[sm.Handler]; !ok {
			order = append(order, sm.Handler)
		}
		byHandler[sm.Handler] = append(byHandler[sm.Handler], sm)
	}
	var views []*cq.Query
	seen := map[string]bool{}
	for _, h := range order {
		vs, err := m.mineHandler(byHandler[h])
		if err != nil {
			return nil, fmt.Errorf("extract: mining %s: %w", h, err)
		}
		for _, v := range vs {
			k := v.CanonicalKey()
			if !seen[k] {
				seen[k] = true
				views = append(views, v)
			}
		}
	}
	if !opts.MinimizePolicy {
		p := &policy.Policy{Schema: s}
		for i, v := range views {
			sql, err := cq.ToSQL(s, v)
			if err != nil {
				return nil, err
			}
			if err := p.Add(fmt.Sprintf("X%d", i+1), sql); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	return assemblePolicy(s, views)
}

type miner struct {
	schema *schema.Schema
	opts   MineOptions
	tr     *cq.Translator
}

// entryKey aligns entries across samples: SQL text plus occurrence
// number of that SQL within the trace.
type entryKey struct {
	sql string
	n   int
}

// aligned is one query site observed across samples.
type aligned struct {
	key entryKey
	// pos[s] is the entry index in sample s's trace (-1 when the
	// sample didn't reach this site).
	pos []int
}

// minedView carries a generalized entry's CQ plus metadata for guard
// correlation.
type minedView struct {
	q *cq.Query
	// argTerm[k] is the CQ term for argument position k.
	argTerm []cq.Term
	// headTerm[c] is the CQ term for result column c.
	headTerm []cq.Term
	// guards lists the aligned-site indices conjoined as guards.
	guards []int
}

func (m *miner) mineHandler(samples []Sample) ([]*cq.Query, error) {
	sites := alignEntries(samples)
	generalized := make([]*minedView, len(sites))

	for si, site := range sites {
		mv, err := m.generalizeSite(samples, sites, generalized, si, site)
		if err != nil {
			return nil, err
		}
		generalized[si] = mv
	}

	// Guard probing: drop guards the prober refutes.
	if m.opts.Prober != nil {
		for si, mv := range generalized {
			if mv == nil || len(mv.guards) == 0 {
				continue
			}
			var confirmed []int
			for _, g := range mv.guards {
				ok, err := m.probeGuard(samples, sites, si, g)
				if err != nil {
					return nil, err
				}
				if ok {
					confirmed = append(confirmed, g)
				}
			}
			if len(confirmed) != len(mv.guards) {
				rebuilt, err := m.generalizeSiteWithGuards(samples, sites, generalized, si, sites[si], confirmed)
				if err != nil {
					return nil, err
				}
				generalized[si] = rebuilt
			}
		}
	}

	var out []*cq.Query
	for _, mv := range generalized {
		if mv != nil {
			view := mv.q.Clone()
			view.NormalizeHead()
			view = cq.ReduceFKAtoms(m.schema, view)
			out = append(out, cq.Minimize(view))
		}
	}
	return out, nil
}

// alignEntries computes the query sites across samples.
func alignEntries(samples []Sample) []aligned {
	var sites []aligned
	index := map[entryKey]int{}
	for sIdx, sm := range samples {
		counts := map[string]int{}
		for eIdx, e := range sm.Entries {
			k := entryKey{sql: e.SQL, n: counts[e.SQL]}
			counts[e.SQL]++
			at, ok := index[k]
			if !ok {
				at = len(sites)
				index[k] = at
				sites = append(sites, aligned{key: k, pos: make([]int, len(samples))})
				for i := range sites[at].pos {
					sites[at].pos[i] = -1
				}
			}
			sites[at].pos[sIdx] = eIdx
		}
	}
	return sites
}

// generalizeSite anti-unifies one site across samples into a view.
func (m *miner) generalizeSite(samples []Sample, sites []aligned, prior []*minedView, si int, site aligned) (*minedView, error) {
	guards := []int{}
	if m.opts.InferGuards {
		guards = m.candidateGuards(samples, sites, prior, si, site)
	}
	return m.generalizeSiteWithGuards(samples, sites, prior, si, site, guards)
}

func (m *miner) generalizeSiteWithGuards(samples []Sample, sites []aligned, prior []*minedView, si int, site aligned, guards []int) (*minedView, error) {
	// Representative entry (first sample that has the site).
	rep := -1
	for s, p := range site.pos {
		if p >= 0 {
			rep = s
			break
		}
	}
	if rep == -1 {
		return nil, nil
	}
	entry := samples[rep].Entries[site.pos[rep]]

	// Decide a term per argument position.
	nArgs := len(entry.Args)
	argTerms := make([]cq.Term, nArgs)
	opaquePos, err := m.opaqueArgPositions(entry.SQL, nArgs)
	if err != nil {
		return nil, err
	}
	for k := 0; k < nArgs; k++ {
		argTerms[k] = m.generalizeArg(samples, site, si, k, opaquePos[k])
	}

	// Translate with named parameters standing for the arg positions.
	sel, err := sqlparser.ParseSelect(entry.SQL)
	if err != nil {
		return nil, err
	}
	marked := sqlparser.MapExprs(sel, func(e sqlparser.Expr) sqlparser.Expr {
		if p, ok := e.(*sqlparser.Param); ok && p.Name == "" {
			return &sqlparser.Param{Name: fmt.Sprintf("__arg%d", p.Index), Index: -1}
		}
		return e
	}).(*sqlparser.SelectStmt)
	ucq, err := m.tr.TranslateSelect(marked)
	if err != nil {
		return nil, err
	}
	if len(ucq) != 1 {
		return nil, fmt.Errorf("disjunctive query %q not supported by the miner", entry.SQL)
	}
	q := ucq[0].RenameVars(fmt.Sprintf("s%d_", si))
	q = q.Substitute(func(t cq.Term) cq.Term {
		if t.IsParam() && strings.HasPrefix(t.Name, "__arg") {
			var k int
			fmt.Sscanf(t.Name, "__arg%d", &k)
			if k >= 0 && k < nArgs {
				return argTerms[k]
			}
		}
		return t
	})

	mv := &minedView{argTerm: argTerms, guards: guards}

	// Record head terms for later correlation, then expose
	// generalized argument variables in the head.
	mv.headTerm = append([]cq.Term(nil), q.Head...)
	exposed := map[string]bool{}
	for _, t := range q.Head {
		if t.IsVar() {
			exposed[t.Name] = true
		}
	}
	for k, t := range argTerms {
		if t.IsVar() && !exposed[t.Name] {
			q.Head = append(q.Head, t)
			q.HeadNames = append(q.HeadNames, fmt.Sprintf("arg%d", k))
			exposed[t.Name] = true
		}
	}

	// Conjoin guard bodies with correlation: a guard contributes its
	// atoms; shared terms arise from argument/result unification.
	for _, g := range guards {
		gv := prior[g]
		if gv == nil {
			continue
		}
		// Correlate: for every arg position k of this site whose value
		// matches the guard's result column c (in all samples), unify
		// argTerms[k] with the guard's head term c. Arg-to-arg
		// correlations share terms already via generalizeArg when the
		// values are session attributes; for free variables, unify
		// here too.
		corr := m.correlations(samples, sites, prior, si, g)
		sub := func(t cq.Term) cq.Term { return t }
		if len(corr) > 0 {
			pairs := map[string]cq.Term{}
			for k, gt := range corr {
				if k < len(argTerms) && argTerms[k].IsVar() {
					pairs[argTerms[k].Name] = gt
				}
			}
			sub = func(t cq.Term) cq.Term {
				if t.IsVar() {
					if to, ok := pairs[t.Name]; ok {
						return to
					}
				}
				return t
			}
		}
		q = q.Substitute(sub)
		for i, t := range mv.headTerm {
			mv.headTerm[i] = applySub(sub, t)
		}
		for i, t := range argTerms {
			argTerms[i] = applySub(sub, t)
		}
		q.Atoms = append(q.Atoms, gv.q.Atoms...)
		q.Comps = append(q.Comps, gv.q.Comps...)
	}

	mv.q = q
	return mv, nil
}

func applySub(sub func(cq.Term) cq.Term, t cq.Term) cq.Term {
	if t.IsConst() {
		return t
	}
	return sub(t)
}

// generalizeArg picks the term for one argument position.
func (m *miner) generalizeArg(samples []Sample, site aligned, si, k int, opaque bool) cq.Term {
	type obs struct {
		val  sqlvalue.Value
		sess map[string]sqlvalue.Value
	}
	var vals []obs
	for s, p := range site.pos {
		if p < 0 {
			continue
		}
		e := samples[s].Entries[p]
		if k < len(e.Args) {
			vals = append(vals, obs{val: e.Args[k], sess: samples[s].Session})
		}
	}
	if len(vals) == 0 {
		return cq.V(fmt.Sprintf("s%d_free_a%d", si, k))
	}
	// Session correlation: a session attribute whose value equals the
	// argument in every observation, with at least two distinct
	// session values giving evidence.
	var attrs []string
	for a := range vals[0].sess {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		all := true
		distinct := map[string]bool{}
		for _, o := range vals {
			sv, ok := o.sess[a]
			if !ok || !sqlvalue.Identical(sv, o.val) {
				all = false
				break
			}
			distinct[sv.Key()] = true
		}
		if all && len(distinct) >= 2 {
			name, ok := m.opts.SessionParam[a]
			if !ok {
				name = "My" + capitalize(a)
			}
			return cq.P(name)
		}
	}
	// Constant across samples?
	same := true
	for _, o := range vals[1:] {
		if !sqlvalue.Identical(o.val, vals[0].val) {
			same = false
			break
		}
	}
	if same && !(m.opts.UseHints && opaque) {
		return cq.C(vals[0].val)
	}
	return cq.V(fmt.Sprintf("s%d_free_a%d", si, k))
}

// opaqueArgPositions reports, per argument position, whether it
// compares against a column marked Opaque in the schema.
func (m *miner) opaqueArgPositions(sql string, nArgs int) ([]bool, error) {
	out := make([]bool, nArgs)
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	marked := sqlparser.MapExprs(sel, func(e sqlparser.Expr) sqlparser.Expr {
		if p, ok := e.(*sqlparser.Param); ok && p.Name == "" {
			return &sqlparser.Param{Name: fmt.Sprintf("__arg%d", p.Index), Index: -1}
		}
		return e
	}).(*sqlparser.SelectStmt)
	ucq, err := m.tr.TranslateSelect(marked)
	if err != nil {
		return nil, err
	}
	for _, q := range ucq {
		for _, a := range q.Atoms {
			tab, ok := m.schema.Table(a.Table)
			if !ok {
				continue
			}
			for ci, t := range a.Args {
				if t.IsParam() && strings.HasPrefix(t.Name, "__arg") {
					var k int
					fmt.Sscanf(t.Name, "__arg%d", &k)
					if k >= 0 && k < nArgs && m.columnOpaque(tab, ci) {
						out[k] = true
					}
				}
			}
		}
	}
	return out, nil
}

// columnOpaque reports whether the column is marked opaque, directly
// or through a foreign key to an opaque column.
func (m *miner) columnOpaque(tab *schema.Table, ci int) bool {
	if tab.Columns[ci].Opaque {
		return true
	}
	name := tab.Columns[ci].Name
	for _, fk := range tab.ForeignKeys {
		for i, c := range fk.Columns {
			if !strings.EqualFold(c, name) {
				continue
			}
			ref, ok := m.schema.Table(fk.RefTable)
			if !ok {
				continue
			}
			if rc, ok := ref.Column(fk.RefColumns[i]); ok && rc.Opaque {
				return true
			}
		}
	}
	return false
}

// candidateGuards finds earlier sites whose results or arguments the
// current site's arguments correlate with, in every sample that
// reached both.
func (m *miner) candidateGuards(samples []Sample, sites []aligned, prior []*minedView, si int, site aligned) []int {
	var guards []int
	for gi := 0; gi < si; gi++ {
		if prior[gi] == nil {
			continue
		}
		if len(m.correlations(samples, sites, prior, si, gi)) > 0 || m.alwaysPrecedesNonEmpty(samples, sites, si, gi) {
			guards = append(guards, gi)
		}
	}
	return guards
}

// alwaysPrecedesNonEmpty reports whether guard site gi appears before
// site si with a non-empty result in every sample that reached si,
// and shares a session-correlated argument (a pure access check like
// Listing 1's attendance probe).
func (m *miner) alwaysPrecedesNonEmpty(samples []Sample, sites []aligned, si, gi int) bool {
	shared := false
	for s := range samples {
		p, g := sites[si].pos[s], sites[gi].pos[s]
		if p < 0 {
			continue
		}
		if g < 0 || g >= p {
			return false
		}
		ge := samples[s].Entries[g]
		if len(ge.Rows) == 0 {
			return false
		}
		// Share at least one argument value with the guarded query.
		pe := samples[s].Entries[p]
		for _, av := range pe.Args {
			for _, gv := range ge.Args {
				if sqlvalue.Identical(av, gv) {
					shared = true
				}
			}
		}
	}
	return shared
}

// correlations maps argument positions of site si to guard-site head
// terms when the values coincide in every sample.
func (m *miner) correlations(samples []Sample, sites []aligned, prior []*minedView, si, gi int) map[int]cq.Term {
	out := map[int]cq.Term{}
	if gi >= len(prior) || prior[gi] == nil {
		return out
	}
	// Try each (arg position, result column) pair.
	rep := -1
	for s, p := range sites[si].pos {
		if p >= 0 && sites[gi].pos[s] >= 0 {
			rep = s
			break
		}
	}
	if rep < 0 {
		return out
	}
	nArgs := len(samples[rep].Entries[sites[si].pos[rep]].Args)
	nCols := len(samples[rep].Entries[sites[gi].pos[rep]].Columns)
	nGArgs := len(samples[rep].Entries[sites[gi].pos[rep]].Args)
	// Arg-to-arg: this site's argument equals the guard's argument in
	// every sample that reached both.
	for k := 0; k < nArgs; k++ {
		for gm := 0; gm < nGArgs; gm++ {
			all := true
			evidence := 0
			for s := range samples {
				p, g := sites[si].pos[s], sites[gi].pos[s]
				if p < 0 {
					continue
				}
				if g < 0 || g >= p {
					all = false
					break
				}
				pe, ge := samples[s].Entries[p], samples[s].Entries[g]
				if k >= len(pe.Args) || gm >= len(ge.Args) || len(ge.Rows) == 0 ||
					!sqlvalue.Identical(pe.Args[k], ge.Args[gm]) {
					all = false
					break
				}
				evidence++
			}
			if all && evidence > 0 && gm < len(prior[gi].argTerm) {
				if _, dup := out[k]; !dup && !prior[gi].argTerm[gm].IsConst() {
					out[k] = prior[gi].argTerm[gm]
				}
			}
		}
	}
	for k := 0; k < nArgs; k++ {
		for c := 0; c < nCols; c++ {
			all := true
			evidence := 0
			for s := range samples {
				p, g := sites[si].pos[s], sites[gi].pos[s]
				if p < 0 {
					continue
				}
				if g < 0 || g >= p {
					all = false
					break
				}
				pe, ge := samples[s].Entries[p], samples[s].Entries[g]
				if k >= len(pe.Args) || len(ge.Rows) == 0 {
					all = false
					break
				}
				found := false
				for _, row := range ge.Rows {
					if c < len(row) && sqlvalue.Identical(row[c], pe.Args[k]) {
						found = true
						break
					}
				}
				if !found {
					all = false
					break
				}
				evidence++
			}
			if all && evidence > 0 && c < len(prior[gi].headTerm) {
				if _, dup := out[k]; !dup {
					out[k] = prior[gi].headTerm[c]
				}
			}
		}
	}
	return out
}

// probeGuard asks the prober to re-run the first applicable sample
// with the guard row removed; the guard is confirmed when the guarded
// query disappears from the re-run trace.
func (m *miner) probeGuard(samples []Sample, sites []aligned, si, gi int) (bool, error) {
	for s := range samples {
		p, g := sites[si].pos[s], sites[gi].pos[s]
		if p < 0 || g < 0 {
			continue
		}
		sqls, err := m.opts.Prober(samples[s], g)
		if err != nil {
			return false, err
		}
		target := samples[s].Entries[p].SQL
		count := 0
		for _, q := range sqls {
			if q == target {
				count++
			}
		}
		// Confirmed when the guarded query is issued fewer times
		// without the guard rows than with them.
		orig := 0
		for _, e := range samples[s].Entries {
			if e.SQL == target {
				orig++
			}
		}
		return count < orig, nil
	}
	return true, nil // no sample to probe with: keep the guard
}
