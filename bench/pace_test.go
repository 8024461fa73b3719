package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	a := newSchedule(5000, 2*time.Second, 42)
	b := newSchedule(5000, 2*time.Second, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := newSchedule(5000, 2*time.Second, 43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 10 000 expected arrivals: a Poisson count is within 5 sigma.
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals at 5000/s over 2 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offsets decrease at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= 2*time.Second {
		t.Errorf("arrival at %v is past the span", last)
	}
}

// The failure the old harness's timer path shows: a 300 µs gap came
// back after 1.1 ms. paceUntil must honour it within 50 µs at p99 when
// nothing else wants the processor. Other test binaries may want it
// (go test ./... runs packages side by side), so an attempt counts
// against paceUntil only when a bare loop on the clock, run just before
// and just after it, kept the same deadlines; three such attempts fail
// the test, one good attempt passes it.
func TestPaceHonoursShortGaps(t *testing.T) {
	const gap, n, limit = 300 * time.Microsecond, 500, 50 * time.Microsecond
	// lateness walks n gaps with wait and returns the p99 lateness.
	lateness := func(wait func(time.Time) time.Duration) time.Duration {
		late := new(hist)
		next := time.Now()
		for i := 0; i < n; i++ {
			next = next.Add(gap)
			late.observe(int64(wait(next)))
		}
		t.Logf("lateness p50 %.1f us, p99 %.1f us, max %.1f us",
			late.quantile(0.5)/1e3, late.quantile(0.99)/1e3, float64(late.maxValue())/1e3)
		return time.Duration(late.quantile(0.99))
	}
	// The reference: the least a wait can do is read the clock until
	// the deadline has passed. When even that is late, the kernel took
	// the processor away and the attempt beside it proves nothing.
	undisturbed := func() bool {
		return lateness(func(deadline time.Time) time.Duration {
			for time.Until(deadline) > 0 {
			}
			return -time.Until(deadline)
		}) <= limit
	}
	judged := 0
	before := undisturbed()
	for attempt := 0; attempt < 10; attempt++ {
		p99 := lateness(paceUntil)
		if p99 <= limit {
			return
		}
		after := undisturbed()
		if before && after {
			if judged++; judged == 3 {
				t.Fatalf("300 us gaps: lateness p99 %v > %v in three attempts on an undisturbed processor", p99, limit)
			}
		}
		before = after
	}
	t.Skip("the machine is too busy to judge a 50 us p99")
}
