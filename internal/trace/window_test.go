package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

// Window, eviction, and restore edge cases — the state machine the
// durable WAL's checkpoints and recovery are built on. Absolute entry
// indices (evicted + position) must stay consistent through every
// combination of eviction and restore, or replay dedup breaks.

func probeEntry(uid, eid int64) Entry {
	return entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=%d AND EId=%d", uid, eid), iv(1))
}

func TestWindowEvictsOldest(t *testing.T) {
	tr := &Trace{}
	tr.SetWindow(3)
	for i := int64(0); i < 5; i++ {
		tr.Append(probeEntry(1, i))
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	if tr.NextIndex() != 5 {
		t.Fatalf("next index = %d, want 5 (absolute indices survive eviction)", tr.NextIndex())
	}
	entries, base := tr.SnapshotState()
	if base != 2 || len(entries) != 3 {
		t.Fatalf("snapshot base=%d len=%d, want 2/3", base, len(entries))
	}
	// The survivors are the three newest.
	if entries[0].SQL != probeEntry(1, 2).SQL {
		t.Fatalf("wrong survivor at window front: %s", entries[0].SQL)
	}
}

func TestShrinkingWindowEvictsImmediately(t *testing.T) {
	tr := &Trace{}
	for i := int64(0); i < 6; i++ {
		tr.Append(probeEntry(1, i))
	}
	tr.SetWindow(2)
	if tr.Len() != 2 || tr.Evicted() != 4 {
		t.Fatalf("len=%d evicted=%d after shrink, want 2/4", tr.Len(), tr.Evicted())
	}
	// Widening never resurrects: the forgotten prefix stays forgotten.
	tr.SetWindow(10)
	if tr.Len() != 2 || tr.NextIndex() != 6 {
		t.Fatalf("len=%d next=%d after widen, want 2/6", tr.Len(), tr.NextIndex())
	}
}

func TestRestoreIntoSmallerWindow(t *testing.T) {
	// Recovery replays a long history into a session whose window is
	// smaller than what survived on disk: only the tail is kept, and
	// absolute indices must account for the immediately-evicted prefix.
	var long []Entry
	for i := int64(0); i < 8; i++ {
		long = append(long, probeEntry(1, i))
	}
	tr := &Trace{}
	tr.SetWindow(3)
	tr.Restore(long, 10) // first restored entry has absolute index 10
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	entries, base := tr.SnapshotState()
	if base != 15 {
		t.Fatalf("base = %d, want 15 (10 + 5 evicted on restore)", base)
	}
	if entries[0].SQL != long[5].SQL {
		t.Fatalf("window kept the wrong tail: %s", entries[0].SQL)
	}
	if tr.NextIndex() != 18 {
		t.Fatalf("next index = %d, want 18", tr.NextIndex())
	}
	// Appends continue the absolute numbering.
	tr.Append(probeEntry(1, 99))
	if tr.NextIndex() != 19 || tr.Len() != 3 {
		t.Fatalf("after append: next=%d len=%d, want 19/3", tr.NextIndex(), tr.Len())
	}
}

func TestRestoreEmptyTrace(t *testing.T) {
	// An empty restore at a nonzero base models a session whose whole
	// history was evicted before the checkpoint: no entries, but the
	// index counter must resume where it left off.
	tr := &Trace{}
	tr.Restore(nil, 7)
	if tr.Len() != 0 || tr.NextIndex() != 7 {
		t.Fatalf("len=%d next=%d, want 0/7", tr.Len(), tr.NextIndex())
	}
	tr.Append(probeEntry(1, 1))
	if tr.NextIndex() != 8 || tr.Evicted() != 7 {
		t.Fatalf("next=%d evicted=%d after append, want 8/7", tr.NextIndex(), tr.Evicted())
	}
}

func TestRestoreReplacesExistingEntries(t *testing.T) {
	// Restore is a replacement, not a merge: pre-existing entries (a
	// duplicate hello racing recovery, say) must not survive it.
	tr := &Trace{}
	tr.Append(probeEntry(9, 9))
	tr.Restore([]Entry{probeEntry(1, 1), probeEntry(1, 2)}, 4)
	entries, base := tr.SnapshotState()
	if len(entries) != 2 || base != 4 {
		t.Fatalf("len=%d base=%d, want 2/4", len(entries), base)
	}
	if entries[0].SQL != probeEntry(1, 1).SQL {
		t.Fatalf("restore did not replace: %s", entries[0].SQL)
	}
}

func TestRestoreInvalidatesFactCache(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(probeEntry(1, 1))
	if n := len(Facts(s, tr)); n != 1 {
		t.Fatalf("facts before restore: %d", n)
	}
	tr.Restore([]Entry{probeEntry(2, 3), probeEntry(2, 4)}, 0)
	facts := Facts(s, tr)
	if len(facts) != 2 {
		t.Fatalf("facts after restore: %d, want 2 (cache must rebuild)", len(facts))
	}
	for _, f := range facts {
		if f.Atom.Args[0].Const.Int() == 1 {
			t.Fatalf("stale pre-restore fact survived: %v", f)
		}
	}
}

// TestEvictionKeepsFactsOfSurvivors: eviction drops the evicted
// entries' facts — except those a surviving entry yields too, which stay,
// at the place their first surviving occurrence gives them — and derives
// nothing again.
func TestEvictionKeepsFactsOfSurvivors(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	_, translated := counted(tr)
	tr.SetWindow(3)
	tr.Append(probeEntry(1, 1))
	tr.Append(probeEntry(1, 2))
	tr.Append(probeEntry(1, 1)) // the first entry's fact again
	if n := len(Facts(s, tr)); n != 2 {
		t.Fatalf("facts at window capacity: %d", n)
	}
	tr.Append(probeEntry(1, 3)) // evicts the first (1,1), not its duplicate
	want := []string{"attendance(1, 2)", "attendance(1, 1)", "attendance(1, 3)"}
	if got := fmt.Sprint(Facts(s, tr)); got != fmt.Sprint(want) {
		t.Fatalf("facts after eviction: %s, want %s", got, want)
	}
	tr.Append(probeEntry(1, 4)) // evicts (1,2): no survivor yields it
	want = []string{"attendance(1, 1)", "attendance(1, 3)", "attendance(1, 4)"}
	if got := fmt.Sprint(Facts(s, tr)); got != fmt.Sprint(want) {
		t.Fatalf("facts after the second eviction: %s, want %s", got, want)
	}
	if n := translated.Value(); n != 5 {
		t.Fatalf("derived %d entries, want 5 (each once)", n)
	}
}

// TestEvictionInterleavings drives a trace through random sequences of
// appends (entries with no facts, with new facts, and with facts other
// entries yield too), window grows and shrinks, restores, clones and
// schema switches. After every step its facts must be what a derivation
// from scratch over the surviving entries lists — facts, keys, order —
// no snapshot handed out earlier may change, and exactly the entries not
// derived before (for the schema in use) are derived.
func TestEvictionInterleavings(t *testing.T) {
	schemas := []*schema.Schema{calSchema(t), calSchema(t)} // equal, distinct identity
	pick := func(rng *rand.Rand) Entry {
		uid, eid := int64(rng.Intn(2)), int64(rng.Intn(4))
		switch rng.Intn(5) {
		case 0: // no fact: the row does not show the event's id
			return entry("SELECT Title FROM Events WHERE EId > 0", []sqlvalue.Value{sqlvalue.NewText("retro")})
		case 1: // a negative fact
			return entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=%d AND EId=%d", uid+5, eid))
		case 2: // two facts per entry
			return entry(fmt.Sprintf("SELECT EId FROM Attendance WHERE UId=%d", uid), iv(eid), iv(eid+1))
		default:
			return probeEntry(uid, eid)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		_, counter := counted(tr)
		tr.SetWindow(1 + rng.Intn(4))
		si, last := 0, 0 // the schema in use, and the one last derived under
		// derived[i] reports whether the i-th entry of the window was
		// derived under schemas[last]; translated is what the trace's
		// counter should read.
		var derived []bool
		var translated int64
		var held []cq.Fact
		var heldKeys, was []string
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(20); {
			case r < 12:
				tr.Append(pick(rng))
				derived = append(derived, false)
			case r < 14:
				tr.SetWindow(1 + rng.Intn(5))
			case r < 15:
				entries, base := tr.SnapshotState()
				if len(entries) > 0 {
					entries = entries[rng.Intn(len(entries)):]
				}
				tr.Restore(append(entries, pick(rng)), base+1)
				derived = make([]bool, len(entries)+1)
			case r < 16:
				tr = tr.Clone()
				_, counter = counted(tr)
				translated = 0
				derived = make([]bool, tr.Len())
				held = nil
			case r < 17:
				si = 1 - si
			}
			if w := tr.window; len(derived) > w {
				derived = derived[len(derived)-w:]
			}
			if rng.Intn(3) == 0 {
				continue // no decision needs facts yet: nothing is derived
			}
			if si != last {
				clear(derived)
				last = si
			}
			for i, d := range derived {
				if !d {
					translated++
					derived[i] = true
				}
			}
			what := fmt.Sprintf("seed %d, step %d", seed, step)
			got, gotKeys := tr.FactsKeyed(&cq.Translator{Schema: schemas[si]})
			want, wantKeys := fromScratch(tr, schemas[si])
			sameFacts(t, what, got, gotKeys, want, wantKeys)
			if n := counter.Value(); n != translated {
				t.Fatalf("%s: derived %d entries in all, want %d", what, n, translated)
			}
			for i, f := range held {
				if f.String() != was[i] || heldKeys[i] != was[i] {
					t.Fatalf("%s: an earlier snapshot changed at %d: %v / %q, was %q", what, i, f, heldKeys[i], was[i])
				}
			}
			held, heldKeys, was = got, gotKeys, append(was[:0], gotKeys...)
		}
	}
}

func TestWindowedCloneKeepsBound(t *testing.T) {
	tr := &Trace{}
	tr.SetWindow(2)
	for i := int64(0); i < 4; i++ {
		tr.Append(probeEntry(1, i))
	}
	cl := tr.Clone()
	if cl.window != 2 || cl.Evicted() != 2 {
		t.Fatalf("clone window=%d evicted=%d, want 2/2", cl.window, cl.Evicted())
	}
	cl.Append(probeEntry(1, 9))
	if cl.Len() != 2 || tr.Len() != 2 {
		t.Fatalf("clone len=%d orig len=%d, want 2/2", cl.Len(), tr.Len())
	}
	if cl.NextIndex() != 5 || tr.NextIndex() != 4 {
		t.Fatalf("clone next=%d orig next=%d, want 5/4 (independent after clone)", cl.NextIndex(), tr.NextIndex())
	}
}

func TestHookSeesAbsoluteIndicesAcrossEviction(t *testing.T) {
	tr := &Trace{}
	tr.SetWindow(2)
	var got []uint64
	tr.SetHook(func(idx uint64, e *Entry) { got = append(got, idx) })
	for i := int64(0); i < 5; i++ {
		tr.Append(probeEntry(1, i))
	}
	for i, idx := range got {
		if idx != uint64(i) {
			t.Fatalf("hook indices %v: eviction must not disturb absolute numbering", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(got))
	}
}

// The append hook runs under the trace lock: concurrent appenders on a
// shared trace (two connections, one durable session) must produce
// hook invocations in strict index order, or the WAL sees a
// permutation it replays as corruption. The hook body needs no extra
// locking — that serialization IS the contract.
func TestConcurrentAppendHookOrdered(t *testing.T) {
	tr := &Trace{}
	var seen []uint64
	tr.SetHook(func(idx uint64, _ *Entry) { seen = append(seen, idx) })
	const goroutines, perG = 8, 50
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := int64(0); i < perG; i++ {
				tr.Append(probeEntry(1, i))
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("hook ran %d times, want %d", len(seen), goroutines*perG)
	}
	for i, idx := range seen {
		if idx != uint64(i) {
			t.Fatalf("hook invocation %d got index %d (out of order)", i, idx)
		}
	}
}
