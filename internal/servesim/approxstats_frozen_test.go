package servesim

import (
	"math"
	"testing"
)

// TestApproxStatsFrozen pins the bits ApproxStats returns, the default sample
// count included: the sampled configuration IDs come from a SplitMix64
// stream, so any change to that stream or to its rejection of duplicates
// changes these values.
func TestApproxStatsFrozen(t *testing.T) {
	cases := []struct {
		profile        string
		q              float64
		samples        int
		makespan, cost uint64
	}{
		{"chat", 0.5, 0, 0x403006e2c5914038, 0x3fb047fe45e79737},
		{"code", 0.7, 96, 0x403e619bb1733137, 0x3fb9b57bbb35145d},
		{"batch", 0.9, 40, 0x404e60a29e808fd4, 0x3fbb9aca0422cf72},
	}
	for _, c := range cases {
		env, err := NewProfileEnv(c.profile, 7)
		if err != nil {
			t.Fatalf("NewProfileEnv(%s): %v", c.profile, err)
		}
		mk, cost, err := env.ApproxStats(c.q, c.samples)
		if err != nil {
			t.Fatalf("ApproxStats: %v", err)
		}
		if math.Float64bits(mk) != c.makespan || math.Float64bits(cost) != c.cost {
			t.Errorf("%s ApproxStats(%v, %d) = (%#x, %#x), want (%#x, %#x)",
				c.profile, c.q, c.samples, math.Float64bits(mk), math.Float64bits(cost), c.makespan, c.cost)
		}
	}
}
