package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// noiseStream draws the deterministic multiplicative noise of a table's
// configurations. Every factor comes from the generator re-seeded with
// numeric.Mix(seed, configID), so it depends only on the configuration, not
// on enumeration order, and one stream serves a whole table without
// allocating per configuration. The generator's stream is that of
// rand.NewSource, derived lazily (see seededSource). A stream is not safe for
// concurrent use.
type noiseStream struct {
	seed int64
	src  seededSource
	rng  *rand.Rand
}

func newNoiseStream(seed int64) *noiseStream {
	n := &noiseStream{seed: seed}
	n.rng = rand.New(&n.src)
	return n
}

// factor returns the noise factor of one configuration, centred at 1 with
// the given relative spread.
func (n *noiseStream) factor(configID int, spread float64) float64 {
	n.rng.Seed(numeric.Mix(n.seed, int64(configID)))
	return math.Exp(n.rng.NormFloat64() * spread)
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
