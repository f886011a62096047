package lynceus

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/optimizer"
)

// refitParityJob builds one of the two parity campaign fixtures with tuning
// options sized like the golden campaigns.
func refitParityJob(t *testing.T, name string) (Environment, Options) {
	t.Helper()
	var job *Job
	var err error
	var budgetMultiplier float64
	switch name {
	case "tensorflow384":
		job, err = SyntheticTensorflowJob("cnn", 42)
		budgetMultiplier = 1.3
	case "scout72":
		var jobs []*Job
		jobs, err = SyntheticScoutJobs(42)
		if err == nil {
			job = jobs[0]
		}
		budgetMultiplier = 4
	default:
		t.Fatalf("unknown parity job %q", name)
	}
	if err != nil {
		t.Fatalf("building job %s: %v", name, err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		t.Fatalf("ResolveBootstrapSize: %v", err)
	}
	return env, Options{
		Budget:            float64(bootstrap) * job.MeanCost() * budgetMultiplier,
		MaxRuntimeSeconds: tmax,
	}
}

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
			env, opts := refitParityJob(t, jobName)
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

// TestIncrementalRefitWorkerCountIndependence pins the determinism contract
// of the incremental path: the per-tree inclusion weights and clone streams
// are keyed by (seed, sample index), never by scheduling, so the whole trial
// sequence must be identical for every worker count.
func TestIncrementalRefitWorkerCountIndependence(t *testing.T) {
	env, opts := refitParityJob(t, "scout72")
	opts.Seed = 5
	var reference []int
	var referenceRec int
	for _, workers := range []int{1, 4, 8} {
		tuner, err := NewTuner(TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental", Workers: workers})
		if err != nil {
			t.Fatalf("NewTuner: %v", err)
		}
		res, err := tuner.Optimize(env, opts)
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", workers, err)
		}
		trials := make([]int, len(res.Trials))
		for i, tr := range res.Trials {
			trials[i] = tr.Config.ID
		}
		if reference == nil {
			reference = trials
			referenceRec = res.Recommended.Config.ID
			continue
		}
		if fmt.Sprint(trials) != fmt.Sprint(reference) {
			t.Fatalf("workers=%d trial sequence %v differs from workers=1 %v", workers, trials, reference)
		}
		if res.Recommended.Config.ID != referenceRec {
			t.Fatalf("workers=%d recommendation %d differs from workers=1 %d", workers, res.Recommended.Config.ID, referenceRec)
		}
	}
}

// TestLookahead3WorkerCountIndependence extends the determinism contract to
// LA=3, where SpecRefitAuto resolves to incremental refits and every worker
// speculates three layers deep on one working copy: the trial sequence and
// recommendation must be identical for workers 1, 2, 4 and 8. Path scores
// land in rank-fixed slots and the pruning threshold is frozen at the seed
// join, so which worker claimed which path cannot change a decision.
func TestLookahead3WorkerCountIndependence(t *testing.T) {
	jobs, err := SyntheticScoutJobs(42)
	if err != nil {
		t.Fatalf("SyntheticScoutJobs: %v", err)
	}
	job := jobs[0]
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		t.Fatalf("ResolveBootstrapSize: %v", err)
	}
	opts := Options{
		// A 2x budget keeps the LA=3 campaign quick while leaving enough
		// post-bootstrap decisions for the comparison to mean something.
		Budget:            float64(bootstrap) * job.MeanCost() * 2,
		MaxRuntimeSeconds: tmax,
		Seed:              7,
	}
	var reference []int
	var referenceRec int
	for _, workers := range []int{1, 2, 4, 8} {
		tuner, err := NewTuner(TunerConfig{Lookahead: 3, Workers: workers})
		if err != nil {
			t.Fatalf("NewTuner: %v", err)
		}
		res, err := tuner.Optimize(env, opts)
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", workers, err)
		}
		trials := make([]int, len(res.Trials))
		for i, tr := range res.Trials {
			trials[i] = tr.Config.ID
		}
		if workers == 1 {
			if len(trials) <= bootstrap {
				t.Fatalf("campaign made no post-bootstrap decisions (%d trials); the comparison is vacuous", len(trials))
			}
			reference = trials
			referenceRec = res.Recommended.Config.ID
			continue
		}
		if fmt.Sprint(trials) != fmt.Sprint(reference) {
			t.Fatalf("workers=%d trial sequence %v differs from workers=1 %v", workers, trials, reference)
		}
		if res.Recommended.Config.ID != referenceRec {
			t.Fatalf("workers=%d recommendation %d differs from workers=1 %d", workers, res.Recommended.Config.ID, referenceRec)
		}
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
	env, opts := refitParityJob(t, "scout72")
	opts.Seed = 1
	if _, err := tuner.Optimize(env, opts); err == nil {
		t.Fatal("incremental refits with a GP cost model did not fail")
	}
}
