//go:build !race

package sim

// RaceEnabled reports whether this binary was built with the race
// detector; see race_on.go.
const RaceEnabled = false
