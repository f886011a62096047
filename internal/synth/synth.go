package synth

import (
	"fmt"
	"math"
	"math/rand"
)

// noise returns a deterministic multiplicative noise factor for the given
// configuration, centred at 1 with the given relative spread. Using a
// dedicated generator seeded from (seed, configID) makes the factor depend
// only on the configuration, not on enumeration order. The generator's
// stream is that of rand.NewSource, derived lazily (see seededSource).
func noise(seed int64, configID int, spread float64) float64 {
	rng := rand.New(newSeededSource(mix(seed, int64(configID))))
	return math.Exp(rng.NormFloat64() * spread)
}

// mix combines two 64-bit values into a well-distributed seed (SplitMix64).
func mix(a, b int64) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b)*0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// clampTimeout caps a runtime at the timeout and reports whether the cap was
// applied.
func clampTimeout(runtime, timeout float64) (float64, bool) {
	if timeout > 0 && runtime > timeout {
		return timeout, true
	}
	return runtime, false
}

// validateIndex guards generators that accept a job index.
func validateIndex(idx, n int, what string) error {
	if idx < 0 || idx >= n {
		return fmt.Errorf("synth: %s index %d out of range [0,%d)", what, idx, n)
	}
	return nil
}
