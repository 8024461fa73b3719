// Package trace records the query history the compliance checker
// reasons over: each entry is an issued query with its arguments and
// observed result. From a trace we derive ground facts — rows known to
// exist in the database, and patterns known to match no row — which is
// what lets the checker allow queries that would be non-compliant in
// isolation (the paper's Example 2.1).
//
// Fact derivation is incremental: a Trace memoizes the facts derived
// from each appended entry, so a session of n queries costs n entry
// translations in total rather than n per check (which made the
// enforcement hot path O(n²)). Entries are immutable once appended,
// so the cache never needs per-entry invalidation — only extension
// for newly appended entries, or a rebuild if the schema changes.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Entry is one observed query with its result.
type Entry struct {
	SQL  string
	Stmt *sqlparser.SelectStmt // parsed, unbound
	Args sqlparser.Args
	// Rows are the result tuples (projected through the query's select
	// list); Columns their labels.
	Columns []string
	Rows    [][]sqlvalue.Value
}

// Trace is an append-only query history for one request/session.
// The zero value is ready to use. A Trace may be shared by concurrent
// checkers: Append and fact derivation are internally synchronized.
//
// A Trace may be bounded (SetWindow): past the bound the oldest
// entries are evicted on Append. Eviction only ever forgets facts, so
// decisions over a windowed trace are sound — merely more conservative
// than over the full history. Absolute entry indices (what the append
// hook reports, and what the durable WAL records) keep counting across
// evictions and restores, so replay can always tell a duplicate from
// new history.
type Trace struct {
	Entries []Entry

	mu sync.Mutex
	fc *factCache
	// window bounds len(Entries); 0 means unlimited.
	window int
	// evicted counts entries dropped from the front over the trace's
	// lifetime (including a restore base): Entries[i] has absolute
	// index evicted+i.
	evicted uint64
	// hook, when set, observes every Append with the entry's absolute
	// index (see SetHook).
	hook func(idx uint64, e *Entry)
	// Cache counters: entries whose derivation was reused vs freshly
	// translated (see FactCacheStats).
	reused, translated uint64
}

// factCache holds incrementally derived facts for one schema. keys
// holds each fact's canonical string, rendered exactly once at
// derivation time (it is needed for dedup anyway) so checkers can key
// their memos off it without re-rendering per check.
type factCache struct {
	schema *schema.Schema
	upto   int // entries processed so far
	seen   map[string]bool
	facts  []cq.Fact
	keys   []string
}

// FactCacheStats reports the incremental fact cache's effectiveness:
// Reused counts entries whose derived facts were served from cache,
// Translated counts entries that had to be parsed/bound/translated.
type FactCacheStats struct {
	Reused     uint64
	Translated uint64
}

// Append records a query and its observed result. The entry must not
// be mutated afterwards. When a window is set, the oldest entries are
// evicted to keep the trace within bound. The append hook, if any,
// runs after the entry is recorded, UNDER the trace lock: a trace may
// be shared by concurrent appenders (two connections on one durable
// session), and the hook enqueueing WAL records inside the lock is
// what guarantees the log sees indices in order — hook invocations for
// one trace are totally ordered by index.
func (t *Trace) Append(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Entries = append(t.Entries, e)
	idx := t.evicted + uint64(len(t.Entries)) - 1
	t.evictLocked()
	if t.hook != nil {
		t.hook(idx, &e)
	}
}

// evictLocked enforces the window bound. Evicting from the front
// invalidates the incremental fact cache (its prefix changed), so the
// facts of the surviving window are re-derived on next use.
func (t *Trace) evictLocked() {
	if t.window <= 0 || len(t.Entries) <= t.window {
		return
	}
	drop := len(t.Entries) - t.window
	t.Entries = append([]Entry(nil), t.Entries[drop:]...)
	t.evicted += uint64(drop)
	t.fc = nil
}

// SetWindow bounds the trace to at most n entries (0 restores
// unlimited), evicting the oldest immediately if already over. A
// windowed trace pays a full window re-derivation of facts per
// eviction; it is meant for long-lived bounded sessions, not the
// unbounded hot path.
func (t *Trace) SetWindow(n int) {
	t.mu.Lock()
	t.window = n
	t.evictLocked()
	t.mu.Unlock()
}

// Window returns the configured bound (0 = unlimited).
func (t *Trace) Window() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.window
}

// Evicted returns how many entries have been dropped from the front
// over the trace's lifetime (restore bases included).
func (t *Trace) Evicted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// SetHook installs the append observer (nil uninstalls). The durable
// WAL uses it to log every recorded entry; the hook runs under the
// trace lock and may block (e.g. waiting on group commit), which
// backpressures that trace only. The hook must not call back into the
// trace.
func (t *Trace) SetHook(fn func(idx uint64, e *Entry)) {
	t.mu.Lock()
	t.hook = fn
	t.mu.Unlock()
}

// Restore replaces the trace's contents with recovered history whose
// first entry has absolute index base. The window bound (if set
// beforehand) applies immediately, so restoring a long history into a
// smaller window keeps only its tail — with absolute indices intact.
// The hook is not invoked for restored entries: they are already
// durable.
func (t *Trace) Restore(entries []Entry, base uint64) {
	t.mu.Lock()
	t.Entries = append([]Entry(nil), entries...)
	t.evicted = base
	t.fc = nil
	t.evictLocked()
	t.mu.Unlock()
}

// SnapshotState copies the current entries and their base offset (the
// absolute index of Entries[0]) — what a checkpoint serializes.
func (t *Trace) SnapshotState() ([]Entry, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Entry(nil), t.Entries...), t.evicted
}

// NextIndex returns the absolute index the next appended entry will
// get.
func (t *Trace) NextIndex() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted + uint64(len(t.Entries))
}

// Len returns the number of entries.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Entries)
}

// Clone copies the trace (entries are immutable once appended, so a
// shallow copy of the slice suffices). The clone keeps the window
// bound and base offset but not the append hook — a diagnostic copy
// must never double-log to the WAL. It starts with an empty fact
// cache, rebuilt lazily on first use.
func (t *Trace) Clone() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{
		Entries: append([]Entry(nil), t.Entries...),
		window:  t.window,
		evicted: t.evicted,
	}
}

// String renders the trace compactly.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, e := range t.Entries {
		fmt.Fprintf(&b, "[%d] %s -> %d row(s)\n", i+1, e.SQL, len(e.Rows))
	}
	return b.String()
}

// FactCacheStats returns the cache counters.
func (t *Trace) FactCacheStats() FactCacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FactCacheStats{Reused: t.reused, Translated: t.translated}
}

// Facts derives ground facts from the trace, incrementally: entries
// already processed for this schema are served from the per-trace
// cache, and only entries appended since the last call are translated.
// The returned slice is freshly allocated on every call; the facts it
// holds are shared with the cache and must be treated as immutable
// (callers that rewrite terms must clone, as cq.Fact.Atom.Clone does).
// The translator is a throwaway: a caller that keeps one (the checker)
// uses FactsKeyed and shares its statement plans.
func (t *Trace) Facts(s *schema.Schema) []cq.Fact {
	facts, _ := t.FactsKeyed(&cq.Translator{Schema: s})
	return append([]cq.Fact(nil), facts...)
}

// FactsKeyed is Facts without the defensive copy: it returns the
// cache's own fact slice alongside each fact's canonical string
// (rendered once at derivation, not per call). Both slices are shared,
// immutable snapshots — the cache only ever appends past their length,
// never rewrites the returned prefix — so the warm decide path can
// walk a long history with zero per-check allocation. Callers must not
// mutate either slice or retain them across a schema change. Entries
// are translated through tr's statement plans, so a statement the
// caller's translator has already planned is not translated again.
func (t *Trace) FactsKeyed(tr *cq.Translator) ([]cq.Fact, []string) {
	s := tr.Schema
	t.mu.Lock()
	defer t.mu.Unlock()
	fc := t.fc
	// (Re)build from scratch when the cache is missing, was built for
	// a different schema, or the trace shrank (cannot happen through
	// Append, but a caller rebinding Entries directly gets correctness
	// over speed).
	if fc == nil || fc.schema != s || fc.upto > len(t.Entries) {
		fc = &factCache{schema: s, seen: make(map[string]bool)}
		t.fc = fc
	}
	t.reused += uint64(fc.upto)
	if fc.upto < len(t.Entries) {
		d := deriver{tr: tr}
		for i := fc.upto; i < len(t.Entries); i++ {
			d.entryFacts(&t.Entries[i], func(f cq.Fact) {
				k := f.String()
				if !fc.seen[k] {
					fc.seen[k] = true
					fc.facts = append(fc.facts, f)
					fc.keys = append(fc.keys, k)
				}
			})
			t.translated++
		}
		fc.upto = len(t.Entries)
	}
	// Full slice expressions pin capacity at the snapshot length, so a
	// later in-place append can never write inside a returned view.
	n := len(fc.facts)
	return fc.facts[:n:n], fc.keys[:n:n]
}

// Facts derives ground facts from the trace, using the trace's
// incremental cache. See (*Trace).Facts for the derivation rules.
func Facts(s *schema.Schema, t *Trace) []cq.Fact {
	return t.Facts(s)
}

// FactsUncached derives the facts from scratch without touching the
// trace's cache. It exists for ablation benchmarks and as an oracle in
// tests; production paths should use (*Trace).Facts.
func FactsUncached(tr *cq.Translator, t *Trace) []cq.Fact {
	t.mu.Lock()
	entries := append([]Entry(nil), t.Entries...)
	t.mu.Unlock()
	var out []cq.Fact
	seen := make(map[string]bool)
	d := deriver{tr: tr}
	for i := range entries {
		d.entryFacts(&entries[i], func(f cq.Fact) {
			k := f.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
		})
	}
	return out
}

// deriver derives facts entry by entry through one translator's
// statement plans, instantiating into storage it reuses: facts copy the
// terms they keep.
type deriver struct {
	tr  *cq.Translator
	in  cq.Instantiation
	raw []sqlvalue.Value
}

// entryFacts derives the facts of a single entry and hands each
// to add (which owns deduplication). A positive fact R(c1..cn) is
// derived from a returned row when the query is a single-disjunct CQ
// and every argument of an atom is forced: either a constant/bound
// parameter, or a head variable whose value the row supplies. A
// negative fact (pattern known to match no rows) is derived from an
// empty result for a single-atom CQ: no row of R matches the pattern.
func (d *deriver) entryFacts(e *Entry, add func(cq.Fact)) {
	var q *cq.Query
	if plan := d.tr.Plan(e.Stmt); plan.Fallback() {
		// No plan expresses the statement: bind and translate this entry.
		bound, err := sqlparser.Bind(e.Stmt, e.Args)
		if err != nil {
			return
		}
		ucq, err := d.tr.TranslateSelect(bound.(*sqlparser.SelectStmt))
		if err != nil || len(ucq) != 1 {
			return // outside the fragment, or disjunctive (see below)
		}
		q = ucq[0]
	} else {
		if plan.Disjuncts() != 1 {
			return // disjunctive queries don't pin down which branch matched
		}
		var ok bool
		if d.raw, ok = plan.Resolve(d.raw, e.Args, nil); !ok {
			return
		}
		q = plan.Instantiate(&d.in, d.raw, nil)[0]
	}
	if q.AggApprox {
		// Aggregate answers don't expose row contents; no positive
		// facts. (A COUNT(*)=0 observation would justify a negative
		// fact, but the aggregate result row is non-empty either
		// way, so we conservatively derive nothing.)
		return
	}
	if len(e.Rows) == 0 {
		// Empty result: for a single-atom query, the pattern has
		// no matching row (conservatively skip queries with
		// comparisons beyond the atom's own constants, where
		// emptiness doesn't localize to the atom).
		if len(q.Atoms) == 1 && len(q.Comps) == 0 {
			add(cq.Fact{Atom: q.Atoms[0].Clone(), Negated: true})
		}
		return
	}
	// Positive facts per returned row.
	for _, row := range e.Rows {
		if len(row) != len(q.Head) {
			continue
		}
		// Head variable -> observed value.
		bind := make(map[string]sqlvalue.Value)
		okRow := true
		for i, h := range q.Head {
			switch {
			case h.IsVar():
				if prev, dup := bind[h.Var]; dup && !sqlvalue.Identical(prev, row[i]) {
					okRow = false
				}
				bind[h.Var] = row[i]
			case h.IsConst():
				// Sanity: observed value should equal the constant.
				if !sqlvalue.Identical(h.Const, row[i]) {
					okRow = false
				}
			}
		}
		if !okRow {
			continue
		}
		for _, a := range q.Atoms {
			ground := cq.Atom{Table: a.Table, Args: make([]cq.Term, len(a.Args))}
			full := true
			for i, arg := range a.Args {
				switch {
				case arg.IsConst():
					ground.Args[i] = arg
				case arg.IsVar():
					v, ok := bind[arg.Var]
					if !ok {
						full = false
					} else {
						ground.Args[i] = cq.C(v)
					}
				default: // unbound parameter: not ground
					full = false
				}
				if !full {
					break
				}
			}
			if full {
				add(cq.Fact{Atom: ground})
			}
		}
	}
}
