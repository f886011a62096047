// Multi-campaign example: run a batch of tuning campaigns concurrently over
// one share group and compare against the same batch run share-nothing.
//
// Multi-tenant tuning services face this shape of load: many tenants tune
// jobs over the same configuration space, often with identical tuner settings
// (replicated SLO probes, per-team campaigns on a shared catalog). The shared
// tier reuses planning decisions across campaigns whose planning inputs are
// bit-identical and pools the planner's path workspaces — nothing else is
// shared — while every campaign's trial sequence and recommendation
// stay bitwise identical to the same campaign run alone. The example proves
// that equivalence directly, then reports the throughput of both modes.
//
//	go run ./examples/multicampaign
//	go run ./examples/multicampaign -campaigns 16 -spread
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	lynceus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multicampaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		campaigns = flag.Int("campaigns", 8, "campaigns in the batch")
		spread    = flag.Bool("spread", false, "give each campaign its own seed instead of replicating one (shares the workspace pool, not decisions)")
		seed      = flag.Int64("seed", 1, "seed of the first campaign")
	)
	flag.Parse()

	job, err := lynceus.SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		return err
	}
	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return err
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return err
	}
	cfg := lynceus.TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}
	optsFor := func(i int) lynceus.Options {
		s := *seed
		if *spread {
			s += int64(i)
		}
		return lynceus.Options{
			Budget:            16 * job.MeanCost(),
			MaxRuntimeSeconds: tmax,
			Seed:              s,
		}
	}

	fmt.Printf("batch of %d LA=2 campaigns on %s (%d configurations), spread=%v\n\n",
		*campaigns, job.Name(), job.Size(), *spread)

	// Run the batch twice: through the sharing tier, then share-nothing. The
	// share-nothing pass is the baseline the throughput benchmark gates
	// against — it uses the same runner and scheduling, only without the
	// share group.
	var shared, isolated lynceus.MultiSummary
	for _, mode := range []struct {
		name    string
		disable bool
		out     *lynceus.MultiSummary
	}{
		{"shared", false, &shared},
		{"share-nothing", true, &isolated},
	} {
		runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{DisableSharing: mode.disable})
		for i := 0; i < *campaigns; i++ {
			if err := runner.Add(fmt.Sprintf("campaign-%d", i), cfg, env, optsFor(i)); err != nil {
				return err
			}
		}
		summary, err := runner.Run()
		if err != nil {
			return err
		}
		for _, r := range summary.Results {
			if r.Err != nil {
				return fmt.Errorf("%s %s: %w", mode.name, r.Name, r.Err)
			}
		}
		*mode.out = summary
		fmt.Printf("  %-13s %8s  %6.2f campaigns/sec\n",
			mode.name, summary.Elapsed.Round(time.Millisecond), summary.CampaignsPerSec)
	}

	// Sharing must never change results: pin every campaign of the shared
	// batch to its share-nothing twin, trial by trial.
	for i, r := range shared.Results {
		if err := sameRun(r.Result, isolated.Results[i].Result); err != nil {
			return fmt.Errorf("campaign %s diverged between modes: %w", r.Name, err)
		}
	}
	speedup := isolated.Elapsed.Seconds() / shared.Elapsed.Seconds()
	fmt.Printf("\n  %.1fx throughput, bitwise-identical recommendations in both modes\n", speedup)
	for _, r := range shared.Results[:min(3, len(shared.Results))] {
		fmt.Printf("  %-12s -> %s ($%.4f, %d explorations)\n",
			r.Name, job.Space().Describe(r.Result.Recommended.Config),
			r.Result.Recommended.Cost, r.Result.Explorations)
	}
	return nil
}

// sameRun verifies two results profiled the same configurations in the same
// order and agree on the recommendation.
func sameRun(a, b lynceus.Result) error {
	if len(a.Trials) != len(b.Trials) {
		return fmt.Errorf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i].Config.ID != b.Trials[i].Config.ID {
			return fmt.Errorf("trial %d differs: config %d vs %d",
				i, a.Trials[i].Config.ID, b.Trials[i].Config.ID)
		}
	}
	if a.Recommended.Config.ID != b.Recommended.Config.ID {
		return fmt.Errorf("recommendations differ: %d vs %d",
			a.Recommended.Config.ID, b.Recommended.Config.ID)
	}
	return nil
}
