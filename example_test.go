// Runnable examples of the paper's scenarios and of this reproduction's
// extensions, one Example_<scenario> function each, sized to run in seconds.
// go test runs every one and compares what it prints with its // Output:
// block; to read one's output:
//
//	go test -run '^Example_quickstart$' -v .
//
// The pinned outputs hold on amd64. The Go compiler for arm64, ppc64le, s390x
// and riscv64 may fuse x*y+z into one rounding, which can change the model's
// floating-point results and so the trials a campaign picks, until the kernel
// rounds explicitly at those sites (ROADMAP item 3).
package lynceus_test

import (
	"fmt"
	"math"

	lynceus "repro"
)

// must returns v, or panics with err: an example stops at its first error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sameTrials reports whether two campaigns profiled the same configurations
// in the same order and recommend the same one.
func sameTrials(a, b lynceus.Result) bool {
	if len(a.Trials) != len(b.Trials) || a.Recommended.Config.ID != b.Recommended.Config.ID {
		return false
	}
	for i := range a.Trials {
		if a.Trials[i].Config.ID != b.Trials[i].Config.ID {
			return false
		}
	}
	return true
}

// Example_quickstart tunes a tiny synthetic job end to end with the default
// tuner (lookahead 2, γ = 0.9, a 10-tree bagging ensemble): the cheapest
// configuration that finishes within 30 minutes, for a profiling budget of
// five average runs (paper §2). The lookup table stands in for a cluster; to
// tune a real one, implement lynceus.Environment instead.
//
// When not to use it: if profiling the whole space costs less than the
// budget, profile everything and take the cheapest feasible configuration.
// Lynceus pays off when the budget covers only a small share of the space.
func Example_quickstart() {
	space := must(lynceus.NewSpace([]lynceus.Dimension{
		{Name: "batch_size", Values: []float64{16, 64, 256}},
		{Name: "workers", Values: []float64{2, 4, 8, 16, 32}},
	}, nil))
	// Larger batches waste some work, more workers help sub-linearly, and a
	// worker costs 0.10 $ per hour.
	measurements := make([]lynceus.Measurement, space.Size())
	for _, cfg := range space.Configs() {
		runtime := 5400 * (1 + 0.002*cfg.Features[0]) / math.Pow(cfg.Features[1], 0.75)
		price := 0.10 * cfg.Features[1]
		measurements[cfg.ID] = lynceus.Measurement{
			ConfigID: cfg.ID, RuntimeSeconds: runtime, UnitPricePerHour: price, Cost: runtime / 3600 * price,
		}
	}
	job := must(lynceus.NewJob("quickstart", space, measurements, 0, nil))
	env := must(lynceus.NewJobEnvironment(job))

	res := must(lynceus.Tune(env, lynceus.Options{Budget: 5 * job.MeanCost(), MaxRuntimeSeconds: 1800, Seed: 1}))
	optimum := must(job.Optimum(1800))
	fmt.Printf("profiled %d of %d configurations, spending %.3f$ of %.3f$\n",
		res.Explorations, space.Size(), res.SpentBudget, res.InitialBudget)
	fmt.Printf("recommended %s: %.0fs, %.4f$ per run (feasible: %v), CNO %.3f\n",
		space.Describe(res.Recommended.Config), res.Recommended.RuntimeSeconds,
		res.Recommended.Cost, res.RecommendedFeasible, res.Recommended.Cost/optimum.Cost)
	// Output:
	// profiled 5 of 15 configurations, spending 1.372$ of 1.591$
	// recommended batch_size=16 workers=8: 1172s, 0.2603$ per run (feasible: true), CNO 1.000
}

// Example_tensorflow jointly tunes the hyper-parameters and the EC2 cluster
// of a distributed training job, the paper's headline scenario (§5.1.1, Fig.
// 4): the 384-point Tensorflow CNN space, a runtime constraint half the space
// meets, and Lynceus against the CherryPick-style BO baseline on one budget
// and the same bootstrap samples.
//
// When not to use lookahead: with a budget large enough for greedy BO to
// converge too, the longer-sighted planner costs planning time and buys
// little. Lookahead matters when the budget is tight.
func Example_tensorflow() {
	job := must(lynceus.SyntheticTensorflowJob("cnn", 42))
	env := must(lynceus.NewJobEnvironment(job))
	tmax := must(job.RuntimeForFeasibleFraction(0.5))
	optimum := must(job.Optimum(tmax))
	opts := lynceus.Options{Budget: 16 * job.MeanCost(), MaxRuntimeSeconds: tmax, Seed: 4}
	fmt.Printf("%s: %d configurations, Tmax %.0fs, budget %.2f$\n", job.Name(), job.Size(), tmax, opts.Budget)

	for _, opt := range []lynceus.Optimizer{must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1})), lynceus.NewBOBaseline()} {
		res := must(opt.Optimize(env, opts))
		fmt.Printf("%-11s %2d explorations, %.2f$ spent, CNO %.3f: %s\n", opt.Name(), res.Explorations,
			res.SpentBudget, res.Recommended.Cost/optimum.Cost, job.Space().Describe(res.Recommended.Config))
	}
	// Output:
	// cnn: 384 configurations, Tmax 342s, budget 3.15$
	// lynceus-la1 32 explorations, 3.13$ spent, CNO 1.000: learning_rate=0.001 batch_size=16 sync=async vm_type=t2.small total_vcpus=8-vcpus
	// bo          24 explorations, 3.12$ spent, CNO 1.024: learning_rate=0.001 batch_size=16 sync=async vm_type=t2.medium total_vcpus=8-vcpus
}

// Example_sparkcluster provisions the cheapest EC2 cluster (VM family, size,
// machine count) for Hadoop/Spark jobs on the Scout dataset (§5.1.2, Fig. 5):
// Lynceus, BO and random search, each over repeated runs that share their
// bootstrap seeds, scored by CNO (cost normalised to the optimum) and NEX
// (explorations).
//
// When not to read much into it: a handful of runs per job only shows the
// harness. The paper's comparisons average 100 runs (lynceus-exp -runs 100).
func Example_sparkcluster() {
	jobs := must(lynceus.SyntheticScoutJobs(42))
	optimizers := []lynceus.Optimizer{
		must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1})), lynceus.NewBOBaseline(), lynceus.NewRandomBaseline(),
	}
	for _, job := range jobs[:2] {
		for _, opt := range optimizers {
			eval := must(lynceus.Evaluate(opt, lynceus.EvaluationConfig{Job: job, Runs: 3, BaseSeed: 1}))
			cno := must(eval.CNOSummary())
			nex := must(eval.NEXSummary())
			fmt.Printf("%-17s %-11s CNO mean %.3f p90 %.3f, NEX mean %.1f\n", job.Name(), opt.Name(), cno.Mean, cno.P90, nex.Mean)
		}
	}
	// Output:
	// hibench-wordcount lynceus-la1 CNO mean 1.356 p90 1.557, NEX mean 7.3
	// hibench-wordcount bo          CNO mean 1.266 p90 1.472, NEX mean 7.0
	// hibench-wordcount rnd         CNO mean 1.014 p90 1.035, NEX mean 9.3
	// hibench-sort      lynceus-la1 CNO mean 1.169 p90 1.213, NEX mean 7.7
	// hibench-sort      bo          CNO mean 1.483 p90 1.823, NEX mean 7.0
	// hibench-sort      rnd         CNO mean 1.265 p90 1.443, NEX mean 9.0
}

// Example_gpmodel swaps the default bagging ensemble for the Gaussian-process
// cost model of the paper's footnote 1 (TunerConfig.CostModel: "gp") on one
// Spark provisioning job; the planner is the same.
//
// When not to use the GP: its fit is cubic in the number of profiled points,
// so past a few hundred trials it costs more than the ensemble, and it does
// not support incremental speculative refits.
func Example_gpmodel() {
	job := must(lynceus.SyntheticScoutJob("hibench-kmeans", 42))
	for _, model := range []string{"bagging", "gp"} {
		tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1, CostModel: model}))
		eval := must(lynceus.Evaluate(tuner, lynceus.EvaluationConfig{Job: job, Runs: 5, BaseSeed: 1}))
		cno := must(eval.CNOSummary())
		nex := must(eval.NEXSummary())
		fmt.Printf("%-7s CNO mean %.3f p90 %.3f, NEX mean %.1f\n", model, cno.Mean, cno.P90, nex.Mean)
	}
	// Output:
	// bagging CNO mean 1.640 p90 2.054, NEX mean 7.2
	// gp      CNO mean 1.337 p90 1.765, NEX mean 8.8
}
