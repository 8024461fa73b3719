// Package trace records the query history the compliance checker
// reasons over: each entry is an issued query with its arguments and
// observed result. From a trace we derive ground facts — rows known to
// exist in the database, and patterns known to match no row — which is
// what lets the checker allow queries that would be non-compliant in
// isolation (the paper's Example 2.1).
//
// Fact derivation is lazy, incremental and memoized per entry: the first
// decision that needs facts derives every entry not derived yet, once,
// through its statement plan's fact extractor (cq.FactExtractor), and
// the trace remembers which facts each entry yielded. A session of n
// queries so costs n derivations in total, not n per check. Evicting an
// entry from a bounded window drops exactly its facts: the session's
// fact list is re-assembled from the survivors' memos, and no entry is
// derived twice in its life. Only a schema change starts over.
//
// A fact describes the database state its read saw. Under a Clock (the
// database's write clock, SetClock), a fact is usable only while no
// write to its table came after the newest read that yielded it; the
// session's fact list holds the usable facts only. The entries stay, so
// windows and the WAL see no difference. Dropping a fact only tightens.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/obsv"
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
	// Omitted counts result tuples that were returned but not kept in
	// Rows, because no fact of the statement reads them
	// (cq.StmtPlan.ReadsRows); the answer had len(Rows)+Omitted rows.
	// Zero keeps every row.
	Omitted int
	// ReadSeq is the write sequence of the database state the read saw
	// (engine.Result.Seq); under a Clock, 0 names no state, so the
	// entry's facts are never usable.
	ReadSeq uint64
}

// Clock is a database's write clock (engine.DB): Seq is its write
// sequence, TableSeq that of the last write to a table.
type Clock interface {
	Seq() uint64
	TableSeq(table string) uint64
}

// RowCount is the number of rows the answer had, kept or omitted.
func (e *Entry) RowCount() int { return len(e.Rows) + e.Omitted }

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
	mu sync.Mutex
	// entries holds the history, oldest first. Eviction shifts the
	// survivors down in place, so a full window appends without
	// allocating.
	entries []Entry
	fc      *factCache
	// clock, when set, retires the facts a write may have falsified.
	clock Clock
	// window bounds len(entries); 0 means unlimited.
	window int
	// evicted counts entries dropped from the front over the trace's
	// lifetime (including a restore base): entries[i] has absolute index
	// evicted+i.
	evicted uint64
	// hook, when set, observes every Append with the entry's absolute
	// index (see SetHook).
	hook func(idx uint64, e *Entry)
	// Cache counters: entries whose derivation was reused vs freshly
	// derived (FactCacheStats), also added to the two of CountInto.
	reused, translated   uint64
	reusedC, translatedC *obsv.Counter
}

// factCache is the trace's derivation for one schema. The first
// len(ends) entries of the window are derived, and their facts are
// memoized as positions in the session's fact list: entry i yields the
// facts at occ[ends[i-1]:ends[i]], in derivation order. facts/keys is
// that list — each fact of a derived entry at its first occurrence in
// window order, as a derivation from scratch over the window lists them,
// with its canonical string rendered once, at derivation. Deriving an
// entry appends to the list; evicting a derived entry that had facts
// marks it stale, and it is re-assembled from the memo before its next
// use.
type factCache struct {
	schema *schema.Schema
	occ    []int32
	ends   []int32
	facts  []cq.Fact
	keys   []string
	seen   []uint64         // per listed fact, the newest ReadSeq that yielded it
	listed map[string]int32 // position in the list by key
	stale  bool
	// facts[:checked] were usable at clock sequence at (retire).
	at      uint64
	checked int
}

// FactCacheStats reports the incremental fact cache's effectiveness:
// Reused counts entries whose derived facts were served from cache,
// Translated counts entries that had to be derived.
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
	if n := len(t.entries); t.window > 0 && n >= t.window {
		t.evictLocked(n - t.window + 1)
	} else if t.window > 0 && n == cap(t.entries) {
		// Grow by doubling, but never past the window.
		grown := make([]Entry, n, min(t.window, max(4, 2*n)))
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries = append(t.entries, e)
	if t.hook != nil {
		n := len(t.entries) - 1
		t.hook(t.evicted+uint64(n), &t.entries[n])
	}
}

// evictLocked drops the n oldest entries, and their facts with them.
// Nothing is derived again: the survivors move down in place, and when
// a dropped entry had facts the fact list is re-assembled from the
// survivors' before its next use.
func (t *Trace) evictLocked(n int) {
	if fc := t.fc; fc != nil {
		fc.forget(n)
	}
	k := copy(t.entries, t.entries[n:])
	clear(t.entries[k:])
	t.entries = t.entries[:k]
	t.evicted += uint64(n)
}

// SetWindow bounds the trace to at most n entries (0 restores
// unlimited), evicting the oldest immediately if already over. Eviction
// re-derives nothing: it drops the evicted entries' facts, and the
// session's fact list is re-assembled from the survivors' on next use.
func (t *Trace) SetWindow(n int) {
	t.mu.Lock()
	t.window = n
	if n > 0 && len(t.entries) > n {
		t.evictLocked(len(t.entries) - n)
	}
	t.mu.Unlock()
}

// Evicted returns how many entries have been dropped from the front
// over the trace's lifetime (restore bases included).
func (t *Trace) Evicted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// SetClock puts the trace under a database's write clock (nil removes
// it): from then on its fact list holds only the usable facts.
func (t *Trace) SetClock(c Clock) {
	t.mu.Lock()
	t.clock = c
	if t.fc != nil {
		t.fc.checked = 0
	}
	t.mu.Unlock()
}

// SetHook installs the append observer (nil uninstalls). The durable
// WAL uses it to log every recorded entry; the hook runs under the
// trace lock and may block (e.g. waiting on group commit), which
// backpressures that trace only. The hook must not call back into the
// trace, nor keep the entry's address past its return.
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
	if t.window > 0 && len(entries) > t.window {
		drop := len(entries) - t.window
		entries, base = entries[drop:], base+uint64(drop)
	}
	t.entries = append([]Entry(nil), entries...)
	t.evicted = base
	t.fc = nil
	t.mu.Unlock()
}

// SnapshotState copies the current entries and their base offset (the
// absolute index of the first) — what a checkpoint serializes.
func (t *Trace) SnapshotState() ([]Entry, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Entry(nil), t.entries...), t.evicted
}

// NextIndex returns the absolute index the next appended entry will
// get.
func (t *Trace) NextIndex() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted + uint64(len(t.entries))
}

// Len returns the number of entries.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
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
		entries: append([]Entry(nil), t.entries...),
		window:  t.window,
		evicted: t.evicted,
		clock:   t.clock,
	}
}

// String renders the trace compactly.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, e := range t.entries {
		fmt.Fprintf(&b, "[%d] %s -> %d row(s)\n", i+1, e.SQL, e.RowCount())
	}
	return b.String()
}

// CountInto adds the trace's fact-cache counts from now on to two
// counters as well (nil counts nothing). A server attaches its totals
// once, when it builds the trace, so a shared trace counts once.
func (t *Trace) CountInto(reused, translated *obsv.Counter) {
	t.mu.Lock()
	t.reusedC, t.translatedC = reused, translated
	t.mu.Unlock()
}

// FactCacheStats returns the cache counters.
func (t *Trace) FactCacheStats() FactCacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FactCacheStats{Reused: t.reused, Translated: t.translated}
}

// Facts derives ground facts from the trace, incrementally: entries
// already derived for this schema are served from the per-trace memo,
// and only entries appended since the last call are derived.
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
// immutable snapshots — the cache only ever appends past their length
// or re-assembles into new arrays, never rewrites a returned one — so
// the warm decide path can walk a long history with zero per-check
// allocation. Under a Clock they hold the usable facts only; when
// nothing was written since the last call, that costs one load.
// Callers must not mutate either slice or retain them across a schema
// change. Entries are derived through tr's statement
// plans, so a statement the caller's translator has already planned is
// not translated again.
func (t *Trace) FactsKeyed(tr *cq.Translator) ([]cq.Fact, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fc := t.fc
	if fc == nil || fc.schema != tr.Schema {
		fc = &factCache{schema: tr.Schema, listed: make(map[string]int32)}
		t.fc = fc
	}
	n := len(fc.ends)
	d := deriver{tr: tr}
	for i := n; i < len(t.entries); i++ {
		fc.add(d.derive(&t.entries[i]), t.entries[i].ReadSeq)
	}
	t.reused += uint64(n)
	t.reusedC.Add(int64(n))
	if k := len(t.entries) - n; k > 0 {
		t.translated += uint64(k)
		t.translatedC.Add(int64(k))
	}
	if fc.stale {
		fc.reassemble(t.entries)
	}
	if t.clock != nil {
		fc.retire(t.clock, t.entries)
	}
	// Full slice expressions pin capacity at the snapshot length, so a
	// later in-place append can never write inside a returned view.
	n = len(fc.facts)
	return fc.facts[:n:n], fc.keys[:n:n]
}

// add memoizes the facts of the next entry, whose read saw state seq:
// each takes its place on the list if it has none yet.
func (fc *factCache) add(facts []cq.Fact, seq uint64) {
	for _, f := range facts {
		k := f.String()
		at, ok := fc.listed[k]
		if !ok {
			at = int32(len(fc.facts))
			fc.listed[k] = at
			fc.facts = append(fc.facts, f)
			fc.keys = append(fc.keys, k)
			fc.seen = append(fc.seen, seq)
		} else {
			fc.seen[at] = max(fc.seen[at], seq)
		}
		fc.occ = append(fc.occ, at)
	}
	fc.ends = append(fc.ends, int32(len(fc.occ)))
}

// retire drops from the list the facts no longer usable: a fact is
// usable while its table's last write (Clock.TableSeq) came no later
// than the newest read that yielded it. Only the facts listed since the
// last look are checked, unless the clock has moved. A dropped fact's
// occurrences leave the memo, so only a fresher read lists it again;
// the list is re-assembled into new arrays, so the snapshots handed out
// before stay as they were.
func (fc *factCache) retire(c Clock, entries []Entry) {
	if now := c.Seq(); now != fc.at {
		fc.at, fc.checked = now, 0
	}
	var gone []bool
	for i := fc.checked; i < len(fc.facts); i++ {
		if !fc.fresh(c, i) {
			if gone == nil {
				gone = make([]bool, len(fc.facts))
			}
			gone[i] = true
		}
	}
	if gone != nil {
		occ, from := fc.occ[:0], int32(0)
		for i, end := range fc.ends {
			for _, at := range fc.occ[from:end] {
				if !gone[at] {
					occ = append(occ, at)
				}
			}
			from, fc.ends[i] = end, int32(len(occ))
		}
		fc.occ = occ
		fc.reassemble(entries)
	}
	fc.checked = len(fc.facts)
}

// fresh reports whether no write to listed fact i's table came after
// the newest read that yielded it.
func (fc *factCache) fresh(c Clock, i int) bool {
	return c.TableSeq(fc.facts[i].Atom.Table) <= fc.seen[i]
}

// forget drops the memo of the n oldest entries (those of them that
// were derived). A fact such an entry yielded may be gone, or belong
// further down the list, so the list goes stale.
func (fc *factCache) forget(n int) {
	n = min(n, len(fc.ends))
	if n == 0 {
		return
	}
	drop := fc.ends[n-1]
	fc.stale = fc.stale || drop > 0
	fc.occ = fc.occ[:copy(fc.occ, fc.occ[drop:])]
	fc.ends = fc.ends[:copy(fc.ends, fc.ends[n:])]
	for i := range fc.ends {
		fc.ends[i] -= drop
	}
}

// reassemble lists the facts of the derived entries again after
// eviction dropped some, in window order, each at its first occurrence.
// Every fact a survivor yields is on the old list, so the memo is all it
// takes; the new list goes into new arrays of its exact size, so the
// snapshots handed out before stay as they were.
func (fc *factCache) reassemble(entries []Entry) {
	moved := make([]int32, len(fc.facts)) // old position -> new + 1; 0: gone
	n := int32(0)
	for i, at := range fc.occ {
		if moved[at] == 0 {
			n++
			moved[at] = n
		}
		fc.occ[i] = moved[at] - 1
	}
	facts, keys := make([]cq.Fact, n), make([]string, n)
	for at, to := range moved {
		if to > 0 {
			facts[to-1], keys[to-1] = fc.facts[at], fc.keys[at]
		}
	}
	for k, at := range fc.listed {
		if to := moved[at]; to > 0 {
			fc.listed[k] = to - 1
		} else {
			delete(fc.listed, k) // only evicted entries yielded it
		}
	}
	seen, from := make([]uint64, n), int32(0)
	for i, end := range fc.ends {
		for _, at := range fc.occ[from:end] {
			seen[at] = max(seen[at], entries[i].ReadSeq)
		}
		from = end
	}
	fc.facts, fc.keys, fc.seen, fc.stale, fc.checked = facts, keys, seen, false, 0
}

// Facts derives ground facts from the trace, using the trace's
// incremental cache. See (*Trace).Facts for the derivation rules.
func Facts(s *schema.Schema, t *Trace) []cq.Fact {
	return t.Facts(s)
}

// deriver derives entries' facts through one translator's statement
// plans, into storage it reuses between entries.
type deriver struct {
	tr    *cq.Translator
	raw   []sqlvalue.Value
	facts []cq.Fact
}

// derive returns the facts of one entry (cq/facts.go has the rules),
// valid until the next call. A statement whose answers yield no fact —
// a refused one among them — costs its plan lookup.
func (d *deriver) derive(e *Entry) []cq.Fact {
	plan := d.tr.Plan(e.Stmt)
	x := plan.Facts()
	if x == nil {
		return nil
	}
	var err error
	if d.raw, err = plan.Resolve(d.raw, e.Args, nil); err != nil {
		return nil
	}
	d.facts = x.AppendFacts(d.facts[:0], d.raw, e.Rows, e.Omitted)
	return d.facts
}
