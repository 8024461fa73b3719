package main

import "testing"

func trial(rate, p99 float64, ok bool) trialResult {
	t := trialResult{Rate: rate, Achieved: rate, P99Us: p99, N: 1000}
	if !ok {
		t.Failed = 1
	}
	return t
}

func ladderOf(pass ...bool) []rung {
	var out []rung
	for i, p := range pass {
		rate := float64(1000 * (i + 1))
		p99 := 1000.0
		if !p {
			p99 = sloLimitUs + 1
		}
		out = append(out, rung{Rate: rate, Trials: []trialResult{trial(rate, 900, true), trial(rate, p99, true)}})
	}
	return out
}

func TestSloRung(t *testing.T) {
	cases := []struct {
		name string
		pass []bool
		want int
	}{
		{"none", []bool{false, false, false}, -1},
		{"lo", []bool{true, false, false}, 0},
		{"lo+mid", []bool{true, true, false}, 1},
		{"all", []bool{true, true, true}, 2},
		{"hole: lo fails, mid passes", []bool{false, true, false}, -1},
		{"hole: mid fails, hi passes", []bool{true, false, true}, 0},
		{"empty", nil, -1},
	}
	for _, c := range cases {
		if got := sloRung(ladderOf(c.pass...)); got != c.want {
			t.Errorf("%s: sloRung = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTrialPassConditions(t *testing.T) {
	good := trialResult{Rate: 1000, Achieved: 990, P99Us: 4000, N: 2000}
	if good.fault() != "" {
		t.Fatal("a clean trial must pass")
	}
	slow, failed, backlog, late := good, good, good, good
	slow.P99Us = sloLimitUs + 1
	failed.Failed = 1
	backlog.Achieved = 0.96 * backlog.Rate
	late.LateP99Us = maxLateP99Us + 1
	for name, tr := range map[string]trialResult{"p99 over the limit": slow, "a failed op": failed,
		"a growing backlog": backlog, "a late generator": late} {
		if tr.fault() == "" {
			t.Errorf("a trial with %s must not pass", name)
		}
	}
	// One bad trial fails the rung.
	if (rung{Rate: 1000, Trials: []trialResult{good, slow}}).fault() == "" {
		t.Error("a rung with one failing trial must not pass")
	}
	if (rung{Rate: 1000}).fault() == "" {
		t.Error("a rung with no trials must not pass")
	}
}
