package obsv

import (
	"context"
	"sync"
	"time"
)

// SpanSet collects named span durations for ONE logical operation —
// the per-section breakdown of a single decision — so an edge (the
// proxy's slow-decision log) can report where that specific request's
// time went, not just aggregate histograms. It is carried through
// context.Context: instrumented code records into it only when the
// caller asked (WithSpanSet), so the common path pays one context
// lookup and nothing else.
//
// A SpanSet is safe for concurrent use (a decision's sections run on
// the caller's goroutine but engine scans report from within the same
// request context). A nil SpanSet is a valid no-op.
type SpanSet struct {
	mu    sync.Mutex
	names []string
	us    []int64
}

type spanKey struct{}

// WithSpanSet returns a context carrying a fresh SpanSet and the set
// itself. Instrumented code downstream records stage timings into it.
func WithSpanSet(ctx context.Context) (context.Context, *SpanSet) {
	ss := &SpanSet{}
	return context.WithValue(ctx, spanKey{}, ss), ss
}

// SpanSetFrom returns the context's SpanSet, or nil when the caller
// did not request span collection.
func SpanSetFrom(ctx context.Context) *SpanSet {
	ss, _ := ctx.Value(spanKey{}).(*SpanSet)
	return ss
}

// Record adds one named span. Repeated names accumulate (a stage that
// runs twice reports its total). No-op on a nil receiver.
func (s *SpanSet) Record(name string, d time.Duration) {
	if s == nil {
		return
	}
	us := d.Microseconds()
	s.mu.Lock()
	for i, n := range s.names {
		if n == name {
			s.us[i] += us
			s.mu.Unlock()
			return
		}
	}
	s.names = append(s.names, name)
	s.us = append(s.us, us)
	s.mu.Unlock()
}

// Micros returns the recorded spans as a name→microseconds map, in
// insertion order lost (map) — use for structured logging. Nil-safe.
func (s *SpanSet) Micros() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.names))
	for i, n := range s.names {
		out[n] = s.us[i]
	}
	return out
}
