package synth

import (
	"math"
	"testing"
)

// TestLargeGridApproxStatsFrozen pins the bits ApproxStats returns on two
// large-grid environments, the default sample count included: the sampled
// configuration IDs come from a SplitMix64 stream, so any change to that
// stream or to its rejection of duplicates changes these values.
func TestLargeGridApproxStatsFrozen(t *testing.T) {
	cases := []struct {
		kind          LargeGridKind
		seed          int64
		q             float64
		samples       int
		runtime, cost uint64
	}{
		{LargeAnalytics, 5, 0.5, 0, 0x40d6774d9ce90595, 0x404fd68f31360daa},
		{LargeAnalytics, 5, 0.25, 512, 0x40be8248240472c7, 0x4050221550e510d9},
		{LargeTraining, 42, 0.7, 96, 0x40f750f2a8204645, 0x4060583a9ecd2efc},
	}
	for _, c := range cases {
		env, err := NewLargeGridEnv(c.kind, 32, c.seed)
		if err != nil {
			t.Fatalf("NewLargeGridEnv: %v", err)
		}
		rt, cost, err := env.ApproxStats(c.q, c.samples)
		if err != nil {
			t.Fatalf("ApproxStats: %v", err)
		}
		if math.Float64bits(rt) != c.runtime || math.Float64bits(cost) != c.cost {
			t.Errorf("%v seed %d ApproxStats(%v, %d) = (%#x, %#x), want (%#x, %#x)",
				c.kind, c.seed, c.q, c.samples, math.Float64bits(rt), math.Float64bits(cost), c.runtime, c.cost)
		}
	}
}
