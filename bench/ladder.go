package main

import "fmt"

// sloLimit is the latency limit a rate must hold to pass: the repo's
// existing serving SLO.
const sloLimitUs = 5000.0

// minAchievedShare is how much of the offered rate a trial must
// complete by the time its last op drains: less means a backlog that
// was still growing.
const minAchievedShare = 0.97

// maxLateP99Us is how late, at p99, the generator may send the ops it
// had to wait for: past it the trial's latencies are the generator's
// doing and prove nothing about the server.
const maxLateP99Us = 100.0

// trialResult is one open-loop trial at one rate.
type trialResult struct {
	Rate      float64 // offered, ops/s
	Achieved  float64 // completed ops/s over the trial
	P50Us     float64
	P99Us     float64
	N         int64
	Failed    int64
	LateP50Us float64 // how late a worker that waited for the clock sent
	LateP99Us float64
	MaxLateUs float64
	Stalls    int64 // sends with more than openWindow later ops already due

	lat *hist // every op's latency, for pooling trials
}

// fault names the first pass condition the trial misses, or "" when it
// passes.
func (t trialResult) fault() string {
	switch {
	case t.Failed > 0:
		return fmt.Sprintf("%d failed ops", t.Failed)
	case t.LateP99Us > maxLateP99Us:
		return fmt.Sprintf("generator late p99 %.0f us > %.0f", t.LateP99Us, maxLateP99Us)
	case t.Achieved < minAchievedShare*t.Rate:
		return fmt.Sprintf("achieved %.0f < %.2f x offered %.0f", t.Achieved, minAchievedShare, t.Rate)
	case t.P99Us > sloLimitUs:
		return fmt.Sprintf("p99 %.0f us > %.0f", t.P99Us, sloLimitUs)
	}
	return ""
}

// rung is every trial at one rate of the ladder.
type rung struct {
	Rate   float64
	Trials []trialResult
}

// fault names what keeps the rung from passing, or "" when every trial
// passes.
func (r rung) fault() string {
	if len(r.Trials) == 0 {
		return "no trials"
	}
	for _, t := range r.Trials {
		if f := t.fault(); f != "" {
			return f
		}
	}
	return ""
}

// sloRung returns the index of the highest rung that passes with every
// lower rung passing, or -1. A hole (lo fails, mid passes) yields -1:
// a rate above a failing rate is not a rate the system sustains.
func sloRung(ladder []rung) int {
	best := -1
	for i, r := range ladder {
		if r.fault() != "" {
			break
		}
		best = i
	}
	return best
}
