package lynceus

import (
	"testing"
)

// largeGridFixture builds a large-grid campaign setup: job, options sized
// from a deterministic sample of the space, and the requested tuner.
func largeGridFixture(t testing.TB, clusterSizes int, budgetRuns float64, seed int64) (*LargeGridJob, Options) {
	t.Helper()
	job, err := SyntheticLargeGridJob("large-etl", clusterSizes, 42)
	if err != nil {
		t.Fatalf("SyntheticLargeGridJob: %v", err)
	}
	tmax, meanCost, err := job.ApproxStats(0.5, 1024)
	if err != nil {
		t.Fatalf("ApproxStats: %v", err)
	}
	return job, Options{
		Budget:            budgetRuns * meanCost,
		MaxRuntimeSeconds: tmax,
		BootstrapSize:     16,
		Seed:              seed,
	}
}

// TestLargeGridCampaignWithSampledStrategy is the headline acceptance test of
// the candidate-provider refactor: a >= 50k-configuration space completes a
// full tuning campaign with the sampled search strategy — every sweep is
// block- or sample-bounded.
func TestLargeGridCampaignWithSampledStrategy(t *testing.T) {
	job, opts := largeGridFixture(t, 128, 30, 3) // 61,440 configurations
	if job.Space().Size() < 50_000 {
		t.Fatalf("space has %d configurations, want >= 50k", job.Space().Size())
	}
	tuner, err := NewTuner(TunerConfig{
		Lookahead: 1,
		Search:    SearchConfig{Strategy: "sampled", SampleSize: 128},
	})
	if err != nil {
		t.Fatalf("NewTuner: %v", err)
	}
	res, err := tuner.Optimize(job, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Explorations <= 16 {
		t.Fatalf("explorations = %d, want more than the bootstrap", res.Explorations)
	}
	if !res.RecommendedFeasible {
		t.Errorf("recommendation infeasible: runtime %.0fs against Tmax %.0fs",
			res.Recommended.RuntimeSeconds, opts.MaxRuntimeSeconds)
	}
	if res.SpentBudget > opts.Budget+res.Recommended.Cost*20 {
		t.Errorf("spent budget %v wildly exceeds %v", res.SpentBudget, opts.Budget)
	}
}

// TestAutoSearchOnLargeStreamingSpace checks the zero-value TunerConfig path:
// with no explicit strategy the planner must pick sampled search on a large
// space and still complete the campaign.
func TestAutoSearchOnLargeStreamingSpace(t *testing.T) {
	job, opts := largeGridFixture(t, 16, 18, 17)
	opts.BootstrapSize = 12
	tuner, err := NewTuner(TunerConfig{Lookahead: 1})
	if err != nil {
		t.Fatalf("NewTuner: %v", err)
	}
	res, err := tuner.Optimize(job, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Explorations <= 12 {
		t.Fatalf("explorations = %d, want more than the bootstrap", res.Explorations)
	}
}

// TestBOBaselineOnStreamingSpace checks that the block-sweep BO baseline runs
// a campaign on a large-grid space.
func TestBOBaselineOnStreamingSpace(t *testing.T) {
	job, opts := largeGridFixture(t, 8, 16, 23) // 3,840 configurations
	opts.BootstrapSize = 10
	bo := NewBOBaseline()
	res, err := bo.Optimize(job, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Explorations <= 10 {
		t.Fatalf("explorations = %d, want more than the bootstrap", res.Explorations)
	}
}

// TestRandomBaselineOnStreamingSpace checks the RND baseline's ID-based
// untested iteration on a large-grid space.
func TestRandomBaselineOnStreamingSpace(t *testing.T) {
	job, opts := largeGridFixture(t, 8, 14, 29)
	opts.BootstrapSize = 8
	res, err := NewRandomBaseline().Optimize(job, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Explorations <= 8 {
		t.Fatalf("explorations = %d, want more than the bootstrap", res.Explorations)
	}
	seen := map[int]bool{}
	for _, tr := range res.Trials {
		if seen[tr.Config.ID] {
			t.Fatalf("config %d profiled twice", tr.Config.ID)
		}
		seen[tr.Config.ID] = true
	}
}

// TestSearchConfigValidation pins the public strategy names.
func TestSearchConfigValidation(t *testing.T) {
	if _, err := NewTuner(TunerConfig{Search: SearchConfig{Strategy: "annealed"}}); err == nil {
		t.Error("unknown strategy accepted")
	}
	for _, strategy := range []string{"", "exhaustive", "sampled"} {
		if _, err := NewTuner(TunerConfig{Search: SearchConfig{Strategy: strategy}}); err != nil {
			t.Errorf("strategy %q rejected: %v", strategy, err)
		}
	}
}
