package main

import (
	"math/bits"
	"sync/atomic"
)

// The benchmark owns its histogram so a product change to
// internal/loadgen or obsv cannot move the ruler. Log-linear: 2^7
// linear sub-buckets per power of two, so a reported quantile is off
// by at most 1/256 of its value (half a sub-bucket) — fine enough to
// resolve enforce_overhead_x, a ratio of two medians a few percent
// apart. Values are nanoseconds.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = histSub + (63-histSubBits)*histSub
)

// hist counts every sample (no window, no sampling). Observe is one
// atomic add per field, so goroutines may share one without a lock.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	max    atomic.Int64
}

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := exp - histSubBits
	return (exp-histSubBits)<<histSubBits + int(uint64(v)>>shift)
}

// histValue is the bucket midpoint, the value a quantile reports.
func histValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	shift := idx/histSub - 1
	low := int64(histSub+idx%histSub) << shift
	return low + (int64(1)<<shift)/2
}

func (h *hist) observe(v int64) {
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *hist) count() uint64 { return h.n.Load() }

func (h *hist) maxValue() int64 { return h.max.Load() }

// quantile returns the q-quantile (0 < q <= 1) in the recorded unit, 0
// when empty. The rank is ceil(q*n), the usual nearest-rank rule.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return float64(histValue(i))
		}
	}
	return float64(h.max.Load())
}

// merge adds other's samples into h.
func (h *hist) merge(other *hist) {
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(other.n.Load())
	if m := other.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}
