//go:build race

package servesim

// raceEnabled reports whether the race detector instruments this build;
// the allocation ratchet skips itself under it (sync.Pool drops items at
// random there).
const raceEnabled = true
