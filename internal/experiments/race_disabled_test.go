//go:build !race

package experiments

// raceEnabled reports whether this test binary was built with -race;
// allocation-budget gates skip there (the detector perturbs alloc
// accounting).
const raceEnabled = false
