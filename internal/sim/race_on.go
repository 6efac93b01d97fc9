//go:build race

package sim

// RaceEnabled reports whether this binary was built with the race
// detector, whose instrumentation slows pure compute several fold:
// checks that bound wall-clock time (E8's per-packet budget, the TE
// solver's convergence limit) relax under it.
const RaceEnabled = true
