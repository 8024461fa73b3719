package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// A reported quantile must be within half a sub-bucket (1/256) of the
// exact order statistic, over six decades of values.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := new(hist)
	vals := make([]float64, 200000)
	for i := range vals {
		v := int64(math.Exp(rng.Float64()*14) * 50) // 50 ns .. 60 ms
		vals[i] = float64(v)
		h.observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact, got := vals[rank], h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/128 {
			t.Errorf("q=%v: got %v, exact %v, relative error %.4f > 1/128", q, got, exact, rel)
		}
	}
	if h.count() != uint64(len(vals)) {
		t.Errorf("count = %d, want %d", h.count(), len(vals))
	}
	if h.maxValue() != int64(vals[len(vals)-1]) {
		t.Errorf("max = %d, want %v", h.maxValue(), vals[len(vals)-1])
	}
}

func TestHistSmallValuesExactAndMerge(t *testing.T) {
	a, b := new(hist), new(hist)
	for v := int64(0); v < 100; v++ {
		a.observe(v)
		b.observe(v + 100)
	}
	a.merge(b)
	if got := a.quantile(0.5); got != 99 {
		t.Errorf("merged median = %v, want 99", got)
	}
	if a.count() != 200 || a.maxValue() != 199 {
		t.Errorf("merged count/max = %d/%d, want 200/199", a.count(), a.maxValue())
	}
	if got := new(hist).quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
