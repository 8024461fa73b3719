// Package obsv is the repo's dependency-free observability core: a
// registry of named atomic counters and bounded latency histograms,
// plus span timing threaded through context.Context (span.go).
//
// Every layer that does measurable work — the checker's decision
// pipeline, the proxy server, the engine's scans, the diagnose search
// — reports into a Registry, and the edges surface it: acproxy's
// -metrics endpoint serializes a Snapshot as JSON, the benchmark in
// bench/ reads Snapshots, and the proxy's slow-decision log attaches
// per-section micros from the context SpanSet.
//
// Design constraints, in order:
//
//   - Hot-path cost is a handful of atomic operations. Counter.Add is
//     one atomic add; Histogram.Record is two atomic adds plus one
//     atomic store into a fixed ring. No locks, no allocation.
//   - Everything is nil-safe: a disabled Registry hands out nil
//     Counters and Histograms whose methods are no-ops, so
//     instrumented code never branches on "is metrics on" — it just
//     calls through, and a no-op build costs only the nil check.
//   - Instruments are resolved by name once (at construction time of
//     the instrumented component), not per operation; the registry
//     map is never touched on the hot path.
package obsv

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is an atomic counter. Most only rise; one that counts what
// is resident (cache entries, open connections) also falls, by Add with
// a negative d. A nil Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefaultHistogramWindow is how many recent samples a histogram keeps
// for percentile estimation.
const DefaultHistogramWindow = 4096

// Histogram keeps the most recent samples (microseconds by
// convention) in a fixed lock-free ring for percentile estimation,
// plus lifetime count and sum for the mean. A nil Histogram is a
// valid no-op instrument.
//
// Record is wait-free: one atomic add to claim a slot, one atomic
// store into it, one atomic add to the sum. Quantiles are computed on
// read by copying and sorting the window — stats cost stays O(1) per
// sample and the read side pays the sort.
type Histogram struct {
	ring []atomic.Int64
	n    atomic.Int64 // total recorded over the lifetime
	sum  atomic.Int64 // lifetime sum
}

// newHistogram builds a histogram with the given window (rounded up
// to 1).
func newHistogram(window int) *Histogram {
	if window < 1 {
		window = 1
	}
	return &Histogram{ring: make([]atomic.Int64, window)}
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := h.n.Add(1) - 1
	h.ring[int(uint64(i)%uint64(len(h.ring)))].Store(v)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start, in microseconds.
// No-op on a nil receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Microseconds())
}

// HistogramSnapshot is a histogram read: percentiles over the recent
// window, lifetime count and mean.
type HistogramSnapshot struct {
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	P99     int64   `json:"p99"`
	P999    int64   `json:"p999"`
	Max     int64   `json:"max"`
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Samples int     `json:"samples"` // window samples the quantiles are over
}

// Snapshot computes the percentile view. Zero-valued on a nil
// receiver or before any sample.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	count := h.n.Load()
	if count == 0 {
		return HistogramSnapshot{}
	}
	n := int(count)
	if n > len(h.ring) {
		n = len(h.ring)
	}
	window := make([]int64, n)
	for i := 0; i < n; i++ {
		window[i] = h.ring[i].Load()
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	at := func(p float64) int64 { return window[int(p*float64(n-1))] }
	return HistogramSnapshot{
		P50:     at(0.50),
		P90:     at(0.90),
		P99:     at(0.99),
		P999:    at(0.999),
		Max:     window[n-1],
		Count:   count,
		Mean:    float64(h.sum.Load()) / float64(count),
		Samples: n,
	}
}

// Registry is a named collection of instruments. The zero value is
// not useful; build one with NewRegistry, or use Disabled() (or a nil
// *Registry) for a registry whose instruments are all no-ops.
type Registry struct {
	disabled bool

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	window   int
}

// NewRegistry builds an enabled registry with the default histogram
// window.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		window:   DefaultHistogramWindow,
	}
}

// Disabled returns a registry whose instruments are all nil no-ops:
// instrumented components built over it run with metrics off and pay
// only a nil check per operation.
func Disabled() *Registry { return &Registry{disabled: true} }

// Enabled reports whether the registry records anything. A nil
// registry is disabled.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// Counter returns (creating on first use) the named counter, or nil
// when the registry is disabled or nil.
func (r *Registry) Counter(name string) *Counter {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram, or
// nil when the registry is disabled or nil.
func (r *Registry) Histogram(name string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(r.window)
		r.hists[name] = h
	}
	return h
}

// Snapshot renders every instrument: counters as integers, histograms
// as HistogramSnapshot objects. Keys are the instrument names. Empty
// on a disabled registry.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if !r.Enabled() {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		out[k] = c.Value()
	}
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return out
}

// WriteJSON serializes the snapshot as indented, key-sorted JSON —
// the expvar-style payload acproxy's -metrics endpoint serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot()) // map keys are sorted by encoding/json
}
