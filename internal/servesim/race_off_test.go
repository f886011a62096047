//go:build !race

package servesim

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
