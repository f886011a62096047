// Command lynceus-batch runs N tuning campaigns concurrently over one share
// group and reports batch throughput (campaigns/sec). Each
// campaign's trial sequence and recommendation are bitwise identical to the
// same campaign run alone through lynceus-tune; sharing changes throughput,
// never results.
//
// Campaigns either replicate one seed (-campaigns N -seed S, a multi-tenant
// replica batch where nearly all planning work is shared) or sweep seeds
// (-seed-step 1 gives seeds S, S+1, ...), which plans each campaign
// separately and shares only the planner's workspace pool.
//
// Usage:
//
//	lynceus-datagen -dataset tensorflow -job cnn -out data/
//	lynceus-batch -dataset data/cnn.csv -campaigns 8
//	lynceus-batch -dataset data/cnn.csv -campaigns 8 -seed-step 1 -v
//	lynceus-batch -dataset data/cnn.csv -campaigns 8 -no-share   (baseline)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	lynceus "repro"
	"repro/internal/optimizer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lynceus-batch:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		datasetPath      = flag.String("dataset", "", "path to the job's CSV lookup table (required)")
		campaigns        = flag.Int("campaigns", 8, "number of campaigns in the batch")
		concurrency      = flag.Int("concurrency", 0, "campaigns stepped at once (0 = GOMAXPROCS)")
		budget           = flag.Float64("budget", 0, "per-campaign profiling budget in USD (overrides -budget-multiplier)")
		budgetMultiplier = flag.Float64("budget-multiplier", 3, "per-campaign budget as a multiple of the expected bootstrap cost")
		tmax             = flag.Float64("tmax", 0, "maximum acceptable job runtime in seconds (0 = derive so half of the configurations qualify)")
		feasibleFraction = flag.Float64("feasible-fraction", 0.5, "fraction of configurations that must satisfy the derived runtime constraint")
		lookahead        = flag.Int("lookahead", 2, "Lynceus lookahead window")
		seed             = flag.Int64("seed", 1, "seed of the first campaign")
		seedStep         = flag.Int64("seed-step", 0, "seed increment between campaigns (0 = replica batch, all campaigns share one seed)")
		noShare          = flag.Bool("no-share", false, "run share-nothing (the throughput baseline; results are identical)")
		verbose          = flag.Bool("v", false, "print every campaign's recommendation, not only the summary")
	)
	flag.Parse()

	if *datasetPath == "" {
		return fmt.Errorf("missing required -dataset flag")
	}
	if *campaigns < 1 {
		return fmt.Errorf("-campaigns must be at least 1")
	}
	f, err := os.Open(*datasetPath)
	if err != nil {
		return fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	job, err := lynceus.ReadJobCSV(f)
	if err != nil {
		return fmt.Errorf("parsing dataset: %w", err)
	}

	maxRuntime := *tmax
	if maxRuntime <= 0 {
		maxRuntime, err = job.RuntimeForFeasibleFraction(*feasibleFraction)
		if err != nil {
			return fmt.Errorf("deriving runtime constraint: %w", err)
		}
	}
	totalBudget := *budget
	if totalBudget <= 0 {
		bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), lynceus.Options{Budget: 1, MaxRuntimeSeconds: 1})
		if err != nil {
			return err
		}
		totalBudget = float64(bootstrap) * job.MeanCost() * *budgetMultiplier
	}

	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return err
	}
	cfg := lynceus.TunerConfig{Lookahead: *lookahead, SpeculativeRefit: "incremental"}
	runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{
		Concurrency:    *concurrency,
		DisableSharing: *noShare,
	})
	for i := 0; i < *campaigns; i++ {
		opts := lynceus.Options{
			Budget:            totalBudget,
			MaxRuntimeSeconds: maxRuntime,
			Seed:              *seed + int64(i)**seedStep,
		}
		if err := runner.Add(fmt.Sprintf("campaign-%d", i), cfg, env, opts); err != nil {
			return err
		}
	}

	mode := "shared"
	if *noShare {
		mode = "share-nothing"
	}
	fmt.Printf("job=%s configs=%d campaigns=%d budget=%.4f$ tmax=%.1fs mode=%s\n",
		job.Name(), job.Size(), *campaigns, totalBudget, maxRuntime, mode)

	summary, err := runner.Run()
	if err != nil {
		return err
	}
	failures := 0
	for _, r := range summary.Results {
		if r.Err != nil {
			failures++
			fmt.Printf("  %-12s FAILED: %v\n", r.Name, r.Err)
			continue
		}
		if *verbose {
			fmt.Printf("  %-12s %-55s cost=%.4f$ explorations=%d\n",
				r.Name, job.Space().Describe(r.Result.Recommended.Config),
				r.Result.Recommended.Cost, r.Result.Explorations)
		}
	}
	fmt.Printf("\ncompleted %d/%d campaigns in %s (%.2f campaigns/sec)\n",
		len(summary.Results)-failures, len(summary.Results), summary.Elapsed.Round(time.Millisecond), summary.CampaignsPerSec)
	if failures > 0 {
		return fmt.Errorf("%d campaigns failed", failures)
	}
	return nil
}
