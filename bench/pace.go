package main

import (
	"math/rand"
	"time"
)

// paceUntil returns once the clock reaches deadline and reports how
// late it returned. It spins on the clock and neither sleeps nor
// yields; README "Pacing" has the measurements behind each refusal. In
// short, on a runtime whose processors the generator shares with the
// server: a sleeping goroutine is woken by a timer, and a processor
// that is marking for the collector does not look at timers until it
// is done (measured: 19 ms late); a goroutine that yields with
// runtime.Gosched sits on the global run queue, which a processor
// serves before it polls the network, and wakes an idle thread on every
// pass (measured: open-loop median 2.5 ms at 30 % load).
func paceUntil(deadline time.Time) time.Duration {
	for {
		if d := time.Until(deadline); d <= 0 {
			return -d
		}
	}
}

// newSchedule draws Poisson arrivals at rate per second until span has
// passed and returns their offsets from the start. The seed fixes the
// whole plan, so two runs offer byte-identical load.
func newSchedule(rate float64, span time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, int(rate*span.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= span {
			return out
		}
		out = append(out, off)
	}
}
