package cq

import (
	"math/rand"
	"testing"

	"repro/internal/sqlvalue"
)

// randComparison draws a random comparison over the given terms.
func randComparison(rng *rand.Rand, terms []Term) Comparison {
	ops := []CompOp{Eq, Ne, Lt, Le, Gt, Ge}
	return Comparison{
		Op:    ops[rng.Intn(len(ops))],
		Left:  terms[rng.Intn(len(terms))],
		Right: terms[rng.Intn(len(terms))],
	}
}

// holdsUnder evaluates a comparison under a variable assignment (to
// half-integer values scaled x2 to approximate the dense order).
func holdsUnder(c Comparison, assign map[string]int) bool {
	val := func(t Term) int {
		if t.IsVar() {
			return assign[t.Name]
		}
		return int(t.Const.Int()) * 2
	}
	l, r := val(c.Left), val(c.Right)
	switch c.Op {
	case Eq:
		return l == r
	case Ne:
		return l != r
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	}
	return false
}

// TestSolverSoundnessBruteForce cross-validates the constraint
// solver's Consistent and Implies against exhaustive enumeration over
// a small half-integer domain:
//
//   - if the solver says inconsistent, no assignment may satisfy the
//     set (dense-order inconsistency implies discrete inconsistency);
//   - if the solver says Implies(c), every satisfying assignment must
//     satisfy c (soundness of implication).
//
// Completeness over the discrete domain is NOT required: x>1 ∧ x<2 is
// satisfiable densely but not over integers, so only the soundness
// directions are asserted.
func TestSolverSoundnessBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	vars := []string{"x", "y", "z"}
	terms := []Term{
		V("x"), V("y"), V("z"),
		C(sqlvalue.NewInt(0)), C(sqlvalue.NewInt(1)), C(sqlvalue.NewInt(2)),
	}
	// Domain: scaled half-integers -1 .. 3 in steps of 0.5 → -2..6.
	domain := []int{-2, -1, 0, 1, 2, 3, 4, 5, 6}

	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(4)
		var comps []Comparison
		for i := 0; i < n; i++ {
			comps = append(comps, randComparison(rng, terms))
		}
		cs := NewConstraints()
		cs.AddAll(comps)

		// Enumerate satisfying assignments.
		var sats []map[string]int
		var rec func(i int, a map[string]int)
		rec = func(i int, a map[string]int) {
			if i == len(vars) {
				for _, c := range comps {
					if !holdsUnder(c, a) {
						return
					}
				}
				cp := map[string]int{}
				for k, v := range a {
					cp[k] = v
				}
				sats = append(sats, cp)
				return
			}
			for _, d := range domain {
				a[vars[i]] = d
				rec(i+1, a)
			}
		}
		rec(0, map[string]int{})

		if !cs.Consistent() && len(sats) > 0 {
			t.Fatalf("solver says inconsistent but %v satisfies %v", sats[0], comps)
		}
		// Implication soundness on random probes.
		for probe := 0; probe < 6; probe++ {
			c := randComparison(rng, terms)
			if !cs.Implies(c) {
				continue
			}
			for _, a := range sats {
				if !holdsUnder(c, a) {
					t.Fatalf("solver claims %v implied by %v, but %v violates it", c, comps, a)
				}
			}
		}
	}
}

// TestSolverImpliesReflexivity: every asserted comparison (and its
// trivial consequences) is implied.
func TestSolverImpliesReflexivity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	terms := []Term{V("a"), V("b"), C(sqlvalue.NewInt(5))}
	for trial := 0; trial < 200; trial++ {
		c := randComparison(rng, terms)
		cs := NewConstraints()
		cs.Add(c)
		if !cs.Consistent() {
			continue // e.g. x < x
		}
		if !cs.Implies(c) {
			t.Fatalf("asserted comparison not implied: %v", c)
		}
		// Flip is equivalent.
		flipped := Comparison{Op: c.Op.Flip(), Left: c.Right, Right: c.Left}
		if !cs.Implies(flipped) {
			t.Fatalf("flipped form not implied: %v from %v", flipped, c)
		}
	}
}
