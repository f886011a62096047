package lynceus_test

import (
	"fmt"

	lynceus "repro"
)

// Example_parallel shows the determinism guarantee of the two levels of
// parallelism: the planner's worker pool (TunerConfig.Workers scores a
// decision's root candidates concurrently) and the evaluation harness's
// concurrent runs (EvaluationConfig.Workers). The same seed profiles the same
// trial sequence and recommends the same configuration at every worker count;
// workers change only how fast, which BenchmarkPlannerLA2Tensorflow
// (internal/core) measures.
//
// When not to add workers: a lookahead-1 decision, or one with few eligible
// candidates, has too little to split, and each extra worker copies the
// model set once per decision. When many campaigns run at once, size the
// product of campaign and planner workers against the cores.
func Example_parallel() {
	job := must(lynceus.SyntheticTensorflowJob("cnn", 42))
	env := must(lynceus.NewJobEnvironment(job))
	opts := lynceus.Options{
		Budget:            16 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		Seed:              1,
	}
	var reference lynceus.Result
	for _, workers := range []int{1, 4} {
		tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 2, Workers: workers}))
		res := must(tuner.Optimize(env, opts))
		if workers == 1 {
			reference = res
		}
		fmt.Printf("planner workers=%d: %d explorations, recommends config %d (%.4f$), same trials as workers=1: %v\n",
			workers, res.Explorations, res.Recommended.Config.ID, res.Recommended.Cost, sameTrials(reference, res))
	}

	tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1}))
	for _, workers := range []int{1, 4} {
		eval := must(lynceus.Evaluate(tuner, lynceus.EvaluationConfig{
			Job: job, Runs: 4, BaseSeed: 1, BudgetMultiplier: 1.25, Workers: workers,
		}))
		cno := must(eval.CNOSummary())
		fmt.Printf("harness workers=%d: 4 runs, CNO mean %.3f\n", workers, cno.Mean)
	}
	// Output:
	// planner workers=1: 23 explorations, recommends config 9 (0.0101$), same trials as workers=1: true
	// planner workers=4: 23 explorations, recommends config 9 (0.0101$), same trials as workers=1: true
	// harness workers=1: 4 runs, CNO mean 1.075
	// harness workers=4: 4 runs, CNO mean 1.075
}

// Example_largespace tunes a workload whose 61,440-point space is never
// materialised: configurations are decoded on demand, the budget and
// constraint come from a deterministic sample of the space (ApproxStats),
// and the "sampled" search strategy scores a fixed-size, seeded subsample of
// the untested configurations per decision, so planning time per decision
// does not grow with the space. BenchmarkLargeSpaceDecision measures it.
//
// When not to use the sampled strategy: on spaces of a few thousand points
// the exhaustive sweep (the paper's behaviour, the default up to 4,096
// points) is affordable and never misses the best-scoring candidate. Set
// Options.BootstrapSize on huge spaces, or the 3%-of-the-space default
// spends the budget on bootstrapping.
func Example_largespace() {
	job := must(lynceus.SyntheticLargeGridJob("large-etl", 0, 7))
	space := job.Space()
	tmax, meanCost, err := job.ApproxStats(0.5, 2048)
	if err != nil {
		panic(err)
	}
	tuner := must(lynceus.NewTuner(lynceus.TunerConfig{
		Lookahead: 1,
		Search:    lynceus.SearchConfig{Strategy: "sampled", SampleSize: 256},
	}))
	res := must(tuner.Optimize(job, lynceus.Options{Budget: 40 * meanCost, MaxRuntimeSeconds: tmax, BootstrapSize: 24, Seed: 7}))
	fmt.Printf("%s: %d configurations, Tmax %.0fs, budget %.2f$\n", job.Name(), space.Size(), tmax, res.InitialBudget)
	fmt.Printf("%d explorations (24 bootstrap), %.2f$ spent\n", res.Explorations, res.SpentBudget)
	fmt.Printf("recommends config %d: %s, %.0fs, %.4f$ (feasible: %v)\n", res.Recommended.Config.ID,
		space.Describe(res.Recommended.Config), res.Recommended.RuntimeSeconds, res.Recommended.Cost, res.RecommendedFeasible)
	// Output:
	// large-etl: 61440 configurations, Tmax 6721s, budget 2429.13$
	// 44 explorations (24 bootstrap), 2424.41$ spent
	// recommends config 23856: vm_family=m5 vcpus_per_node=4xlarge nodes=41 tasks_per_vcpu=8 memory_fraction=0.6, 4486s, 39.2371$ (feasible: true)
}

// Example_multicampaign runs a batch of campaigns concurrently over one share
// group, the multi-tenant regime of a tuning service, and the same batch
// share-nothing: replicas of one campaign plan each decision once and adopt
// it, yet every campaign's trials and recommendation equal its share-nothing
// twin's. BenchmarkMultiCampaignThroughput measures the throughput.
//
// When not to expect a gain: decisions are reused only between campaigns
// whose planning inputs are bit-identical (same seed, budget, constraints and
// history). Campaigns with their own seeds share only the planner's pooled
// workspaces.
func Example_multicampaign() {
	job := must(lynceus.SyntheticTensorflowJob("cnn", 42))
	env := must(lynceus.NewJobEnvironment(job))
	cfg := lynceus.TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}
	opts := lynceus.Options{
		Budget:            16 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		Seed:              1,
	}
	var batches [2][]lynceus.MultiResult
	for i, disable := range []bool{false, true} {
		runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{DisableSharing: disable})
		for c := range 4 {
			if err := runner.Add(fmt.Sprintf("campaign-%d", c), cfg, env, opts); err != nil {
				panic(err)
			}
		}
		summary := must(runner.Run())
		for _, r := range summary.Results {
			if r.Err != nil {
				panic(r.Err)
			}
		}
		batches[i] = summary.Results
	}
	for i, r := range batches[0] {
		fmt.Printf("%s: %d explorations, recommends config %d (%.4f$), shared ≡ share-nothing: %v\n", r.Name,
			r.Result.Explorations, r.Result.Recommended.Config.ID, r.Result.Recommended.Cost,
			sameTrials(r.Result, batches[1][i].Result))
	}
	// Output:
	// campaign-0: 25 explorations, recommends config 0 (0.0091$), shared ≡ share-nothing: true
	// campaign-1: 25 explorations, recommends config 0 (0.0091$), shared ≡ share-nothing: true
	// campaign-2: 25 explorations, recommends config 0 (0.0091$), shared ≡ share-nothing: true
	// campaign-3: 25 explorations, recommends config 0 (0.0091$), shared ≡ share-nothing: true
}
