package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("same name must resolve to the same counter")
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	c.Inc()
	c.Add(10)
	h.Observe(7)
	h.ObserveSince(time.Now())
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram must read empty")
	}
	d := Disabled()
	if d.Enabled() {
		t.Fatal("Disabled() must not be enabled")
	}
	if d.Counter("x") != nil || d.Histogram("y") != nil {
		t.Fatal("disabled registry must hand out nil instruments")
	}
	if len(d.Snapshot()) != 0 {
		t.Fatal("disabled registry snapshot must be empty")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Samples != 100 {
		t.Fatalf("count=%d samples=%d, want 100/100", s.Count, s.Samples)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Fatalf("p50 = %d, want ~50", s.P50)
	}
	if s.P99 < 95 || s.P99 > 100 {
		t.Fatalf("p99 = %d, want ~99", s.P99)
	}
	if s.Max != 100 {
		t.Fatalf("max = %d, want 100", s.Max)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Fatalf("mean = %.1f, want 50.5", s.Mean)
	}
}

func TestHistogramWindowBounded(t *testing.T) {
	h := newHistogram(8)
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("lifetime count = %d, want 1000", s.Count)
	}
	if s.Samples != 8 {
		t.Fatalf("window samples = %d, want 8", s.Samples)
	}
	// The window holds only recent values.
	if s.P50 < 900 {
		t.Fatalf("p50 = %d, want a recent value (>=900)", s.P50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Histogram("a.micros").Observe(10)
	snap := r.Snapshot()
	if snap["a.count"] != int64(3) {
		t.Fatalf("snapshot counter = %v", snap["a.count"])
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v", err)
	}
	if decoded["a.count"].(float64) != 3 {
		t.Fatalf("decoded counter = %v", decoded["a.count"])
	}
	hist := decoded["a.micros"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Fatalf("decoded histogram = %v", hist)
	}
}

func TestSpanSetThroughContext(t *testing.T) {
	if SpanSetFrom(context.Background()) != nil {
		t.Fatal("background context must carry no SpanSet")
	}
	ctx, ss := WithSpanSet(context.Background())
	if SpanSetFrom(ctx) != ss {
		t.Fatal("SpanSetFrom must return the installed set")
	}
	ss.Record("bind", 3*time.Microsecond)
	ss.Record("cover", 5*time.Microsecond)
	ss.Record("bind", 2*time.Microsecond) // accumulates
	m := ss.Micros()
	if m["bind"] != 5 || m["cover"] != 5 {
		t.Fatalf("micros = %v", m)
	}
	// Nil SpanSet is a no-op.
	var nilSS *SpanSet
	nilSS.Record("x", time.Second)
	if nilSS.Micros() != nil {
		t.Fatal("nil SpanSet must be inert")
	}
}
