package lynceus

import (
	"sort"
	"testing"
)

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// TestIncrementalRefitRecommendationParity is the statistical-parity gate of
// the incremental speculative-refit path: across ≥10 seeds on the 384-point
// Tensorflow space and the 72-point Scout space, the median cost of the
// final recommendation under "incremental" must land within 5% of the exact
// "full" path's median.
func TestIncrementalRefitRecommendationParity(t *testing.T) {
	const tolerance = 0.05
	// Seed counts per job: ≥10 everywhere; the cheap 72-point Scout space
	// takes extra seeds because its campaigns have far more post-bootstrap
	// decisions, so its recommendation distribution is wider.
	seedCounts := map[string]int64{"tensorflow384": 10, "scout72": 20}
	for _, jobName := range []string{"tensorflow384", "scout72"} {
		t.Run(jobName, func(t *testing.T) {
			seeds := seedCounts[jobName]
			env, opts := fixtureNamed(t, jobName+"-la2").inputs(t, 0)
			costs := map[string][]float64{}
			for _, mode := range []string{"full", "incremental"} {
				tuner, err := NewTuner(TunerConfig{Lookahead: 2, SpeculativeRefit: mode})
				if err != nil {
					t.Fatalf("NewTuner(%s): %v", mode, err)
				}
				for seed := int64(1); seed <= seeds; seed++ {
					runOpts := opts
					runOpts.Seed = seed
					res, err := tuner.Optimize(env, runOpts)
					if err != nil {
						t.Fatalf("Optimize(%s, seed %d): %v", mode, seed, err)
					}
					costs[mode] = append(costs[mode], res.Recommended.Cost)
				}
			}
			full := median(costs["full"])
			inc := median(costs["incremental"])
			t.Logf("%s: median recommended cost full=%v incremental=%v (%d seeds)", jobName, full, inc, seeds)
			if full <= 0 {
				t.Fatalf("degenerate full-path median %v", full)
			}
			if ratio := inc / full; ratio > 1+tolerance || ratio < 1-tolerance {
				t.Errorf("incremental median recommendation cost %v deviates %.1f%% from full-path median %v (tolerance %.0f%%)",
					inc, (ratio-1)*100, full, tolerance*100)
			}
		})
	}
}

func TestNewTunerRejectsUnknownSpeculativeRefit(t *testing.T) {
	if _, err := NewTuner(TunerConfig{SpeculativeRefit: "bogus"}); err == nil {
		t.Fatal("NewTuner accepted an unknown speculative-refit mode")
	}
}

func TestNewTunerRejectsIncrementalWithGP(t *testing.T) {
	tuner, err := NewTuner(TunerConfig{CostModel: "gp", SpeculativeRefit: "incremental"})
	if err != nil {
		t.Fatalf("NewTuner: %v", err)
	}
	env, opts := fixtureNamed(t, "scout72-la2").inputs(t, 1)
	if _, err := tuner.Optimize(env, opts); err == nil {
		t.Fatal("incremental refits with a GP cost model did not fail")
	}
}
