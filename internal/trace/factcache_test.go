package trace

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/obsv"
	"repro/internal/schema"
)

// counted attaches fresh fact-cache counters to tr (CountInto) and
// returns them: entries reused and entries translated.
func counted(tr *Trace) (reused, translated *obsv.Counter) {
	reg := obsv.NewRegistry()
	reused, translated = reg.Counter("reused"), reg.Counter("translated")
	tr.CountInto(reused, translated)
	return reused, translated
}

// fromScratch derives the facts of tr's current entries in a fresh
// trace, which carries no memo over.
func fromScratch(tr *Trace, s *schema.Schema) ([]cq.Fact, []string) {
	entries, _ := tr.SnapshotState()
	fresh := &Trace{}
	fresh.Restore(entries, 0)
	return fresh.FactsKeyed(&cq.Translator{Schema: s})
}

// sameFacts fails unless two derivations list the same facts under the
// same keys in the same order, each key its fact's rendering.
func sameFacts(t testing.TB, what string, gotF []cq.Fact, gotK []string, wantF []cq.Fact, wantK []string) {
	t.Helper()
	if len(gotF) != len(gotK) {
		t.Fatalf("%s: %d facts, %d keys", what, len(gotF), len(gotK))
	}
	if fmt.Sprint(gotK) != fmt.Sprint(wantK) || fmt.Sprint(gotF) != fmt.Sprint(wantF) {
		t.Fatalf("%s:\ngot  %q\nwant %q", what, gotK, wantK)
	}
	for i, f := range gotF {
		if f.String() != gotK[i] {
			t.Fatalf("%s: key %q for fact %v", what, gotK[i], f)
		}
	}
}

// TestIncrementalFactsMatchUncached grows a trace entry by entry and
// checks that the cached derivation always equals a from-scratch one.
func TestIncrementalFactsMatchUncached(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i), iv(1)))
		case 1:
			tr.Append(entry(fmt.Sprintf("SELECT EId FROM Attendance WHERE UId=%d", i), iv(int64(i)), iv(int64(i+1))))
		default:
			tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=9 AND EId=%d", i))) // empty: negative fact
		}
		got, gotKeys := tr.FactsKeyed(&cq.Translator{Schema: s})
		want, wantKeys := fromScratch(tr, s)
		sameFacts(t, fmt.Sprintf("after %d entries", i+1), got, gotKeys, want, wantKeys)
	}
}

// TestFactCacheIsIncremental verifies that repeated calls translate
// each entry exactly once.
func TestFactCacheIsIncremental(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	reused, translated := counted(tr)
	for i := 0; i < 10; i++ {
		tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i), iv(1)))
	}
	tr.Facts(s)
	tr.Facts(s)
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=99", iv(1)))
	tr.Facts(s)
	if n := translated.Value(); n != 11 {
		t.Errorf("translated %d entries, want 11 (each exactly once)", n)
	}
	// Second call reuses 10, third call reuses 10 more (before
	// translating the new entry).
	if n := reused.Value(); n != 20 {
		t.Errorf("reused %d entries, want 20", n)
	}
}

// TestFactCacheRebuildsOnSchemaChange: deriving against a different
// schema must not serve facts cached for the old one.
func TestFactCacheRebuildsOnSchemaChange(t *testing.T) {
	s1 := calSchema(t)
	s2 := calSchema(t) // structurally equal, distinct identity
	tr := &Trace{}
	_, translated := counted(tr)
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	f1 := tr.Facts(s1)
	f2 := tr.Facts(s2)
	if len(f1) != 1 || len(f2) != 1 {
		t.Fatalf("facts: %v / %v", f1, f2)
	}
	if n := translated.Value(); n != 2 {
		t.Errorf("schema switch must rebuild: translated=%d, want 2", n)
	}
}

// TestFactsReturnedSliceIsPrivate: appending to one call's result
// must not leak into the next call's.
func TestFactsReturnedSliceIsPrivate(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	a := tr.Facts(s)
	a = append(a, a[0]) // caller extends its copy
	_ = a
	if b := tr.Facts(s); len(b) != 1 {
		t.Fatalf("cache corrupted by caller append: %v", b)
	}
}

// TestConcurrentFactsAndAppend hammers a shared trace from appenders
// and readers; run under -race.
func TestConcurrentFactsAndAppend(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	_, translated := counted(tr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=%d AND EId=%d", g, i), iv(1)))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = tr.Facts(s)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Facts(s)); got != 100 {
		t.Fatalf("expected 100 facts after concurrent appends, got %d", got)
	}
	if n := translated.Value(); n != 100 {
		t.Errorf("each entry should be translated exactly once, got %d", n)
	}
}

// TestConcurrentFactsAndAppendWindowed is the same hammering on a
// windowed trace, so eviction runs between derivations; readers check
// that no snapshot changes under them. Run under -race.
func TestConcurrentFactsAndAppendWindowed(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.SetWindow(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// EIds repeat across appenders: facts both evicted and
				// still held by a survivor.
				tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=%d AND EId=%d", g%2, i%6), iv(1)))
			}
		}(g)
		go func() {
			defer wg.Done()
			ct := &cq.Translator{Schema: s}
			var held []cq.Fact
			var heldKeys, was []string
			for i := 0; i < 50; i++ {
				facts, keys := tr.FactsKeyed(ct)
				for j, f := range facts {
					if f.String() != keys[j] {
						t.Errorf("key %q for fact %v", keys[j], f)
						return
					}
				}
				for j, f := range held {
					if f.String() != was[j] || heldKeys[j] != was[j] {
						t.Errorf("an earlier snapshot changed: %v / %q, was %q", f, heldKeys[j], was[j])
						return
					}
				}
				held, heldKeys, was = facts, keys, append(was[:0], keys...)
			}
		}()
	}
	wg.Wait()
	if n := tr.Len(); n != 8 {
		t.Fatalf("window holds %d entries, want 8", n)
	}
	got, gotKeys := tr.FactsKeyed(&cq.Translator{Schema: s})
	want, wantKeys := fromScratch(tr, s)
	sameFacts(t, "after the appends", got, gotKeys, want, wantKeys)
}

// TestCloneRebuildsLazily: a clone starts with an empty cache but
// derives identical facts.
func TestCloneRebuildsLazily(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	orig := tr.Facts(s)
	cp := tr.Clone()
	reused, translated := counted(cp)
	got := cp.Facts(s)
	if len(got) != len(orig) || got[0].String() != orig[0].String() {
		t.Fatalf("clone facts: %v, want %v", got, orig)
	}
	if translated.Value() != 1 || reused.Value() != 0 {
		t.Errorf("clone should rebuild from scratch: reused %d, translated %d", reused.Value(), translated.Value())
	}
}

func benchSchema(b *testing.B) *schema.Schema {
	b.Helper()
	return calSchema(b)
}

// BenchmarkFactsLongTrace compares cached vs from-scratch derivation on
// a 200-entry history — the trace-side half of the O(n²) fix.
func BenchmarkFactsLongTrace(b *testing.B) {
	s := benchSchema(b)
	mk := func() *Trace {
		tr := &Trace{}
		for i := 0; i < 200; i++ {
			tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i), iv(1)))
		}
		return tr
	}
	b.Run("incremental", func(b *testing.B) {
		tr := mk()
		tr.Facts(s) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tr.Facts(s)
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		tr := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = fromScratch(tr, s)
		}
	})
}
