package main

import "testing"

// whole = sum(parts) + self for every op, including ops whose parts
// overran the whole (self goes negative rather than being clamped, so
// the budget still closes).
func TestSelfTimeClosesTheBudget(t *testing.T) {
	cases := []struct {
		whole int64
		parts []int64
		want  int64
	}{
		{1000, []int64{100, 200, 300}, 400},
		{1000, nil, 1000},
		{500, []int64{300, 300}, -100},
		{0, []int64{0}, 0},
	}
	for _, c := range cases {
		got := selfTime(c.whole, c.parts...)
		if got != c.want {
			t.Errorf("selfTime(%d, %v) = %d, want %d", c.whole, c.parts, got, c.want)
		}
		sum := got
		for _, p := range c.parts {
			sum += p
		}
		if sum != c.whole {
			t.Errorf("parts + self = %d, want the whole %d", sum, c.whole)
		}
	}
}

func TestSeriesQuantileHandlesNegatives(t *testing.T) {
	s := series{5, -3, 1, -1, 3}
	if got := s.quantile(0.5); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := s.quantile(0.01); got != -3 {
		t.Errorf("q01 = %v, want -3", got)
	}
	if got := s.quantile(1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := (series{}).quantile(0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
