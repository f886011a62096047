package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// noise returns a deterministic multiplicative noise factor for the given
// configuration, centred at 1 with the given relative spread. Using a
// dedicated generator seeded from (seed, configID) makes the factor depend
// only on the configuration, not on enumeration order. The generator's
// stream is that of rand.NewSource, derived lazily (see seededSource).
func noise(seed int64, configID int, spread float64) float64 {
	rng := rand.New(newSeededSource(numeric.Mix(seed, int64(configID))))
	return math.Exp(rng.NormFloat64() * spread)
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
