package trace

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
)

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
		got := tr.Facts(s)
		want := FactsUncached(&cq.Translator{Schema: s}, tr)
		if len(got) != len(want) {
			t.Fatalf("after %d entries: cached %d facts, uncached %d", i+1, len(got), len(want))
		}
		for j := range got {
			if got[j].String() != want[j].String() || got[j].Negated != want[j].Negated {
				t.Fatalf("after %d entries, fact %d: cached %v, uncached %v", i+1, j, got[j], want[j])
			}
		}
	}
}

// TestFactCacheIsIncremental verifies that repeated calls translate
// each entry exactly once.
func TestFactCacheIsIncremental(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(entry(fmt.Sprintf("SELECT 1 FROM Attendance WHERE UId=1 AND EId=%d", i), iv(1)))
	}
	tr.Facts(s)
	tr.Facts(s)
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=99", iv(1)))
	tr.Facts(s)
	st := tr.FactCacheStats()
	if st.Translated != 11 {
		t.Errorf("translated %d entries, want 11 (each exactly once)", st.Translated)
	}
	// Second call reuses 10, third call reuses 10 more (before
	// translating the new entry).
	if st.Reused != 20 {
		t.Errorf("reused %d entries, want 20", st.Reused)
	}
}

// TestFactCacheRebuildsOnSchemaChange: deriving against a different
// schema must not serve facts cached for the old one.
func TestFactCacheRebuildsOnSchemaChange(t *testing.T) {
	s1 := calSchema(t)
	s2 := calSchema(t) // structurally equal, distinct identity
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	f1 := tr.Facts(s1)
	f2 := tr.Facts(s2)
	if len(f1) != 1 || len(f2) != 1 {
		t.Fatalf("facts: %v / %v", f1, f2)
	}
	st := tr.FactCacheStats()
	if st.Translated != 2 {
		t.Errorf("schema switch must rebuild: translated=%d, want 2", st.Translated)
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
	st := tr.FactCacheStats()
	if st.Translated != 100 {
		t.Errorf("each entry should be translated exactly once, got %d", st.Translated)
	}
}

// TestCloneRebuildsLazily: a clone starts with an empty cache but
// derives identical facts.
func TestCloneRebuildsLazily(t *testing.T) {
	s := calSchema(t)
	tr := &Trace{}
	tr.Append(entry("SELECT 1 FROM Attendance WHERE UId=1 AND EId=2", iv(1)))
	orig := tr.Facts(s)
	cp := tr.Clone()
	got := cp.Facts(s)
	if len(got) != len(orig) || got[0].String() != orig[0].String() {
		t.Fatalf("clone facts: %v, want %v", got, orig)
	}
	if st := cp.FactCacheStats(); st.Translated != 1 {
		t.Errorf("clone should rebuild from scratch: %+v", st)
	}
}

func benchSchema(b *testing.B) *schema.Schema {
	b.Helper()
	return calSchema(b)
}

// BenchmarkFactsLongTrace compares cached vs uncached derivation on a
// 200-entry history — the trace-side half of the O(n²) fix.
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
	b.Run("uncached", func(b *testing.B) {
		tr := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = FactsUncached(&cq.Translator{Schema: s}, tr)
		}
	})
}
