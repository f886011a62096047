// Tensorflow example: jointly tune the hyper-parameters and the EC2 cluster
// of a distributed neural-network training job, the headline scenario of the
// paper (§5.1.1).
//
// The example uses the synthetic Tensorflow dataset (384 configurations over
// learning rate, batch size, sync/async training, VM type, and cluster size)
// and compares Lynceus against the CherryPick-style BO baseline on the same
// budget, using identical bootstrap samples.
//
//	go run ./examples/tensorflow            # defaults: cnn, lookahead 1
//	go run ./examples/tensorflow -job rnn -lookahead 2
package main

import (
	"flag"
	"fmt"
	"os"

	lynceus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tensorflow:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		jobName   = flag.String("job", "cnn", "tensorflow job to tune: cnn, rnn or multilayer")
		lookahead = flag.Int("lookahead", 1, "Lynceus lookahead window (2 reproduces the paper default but is slower)")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	job, err := lynceus.SyntheticTensorflowJob(*jobName, 42)
	if err != nil {
		return err
	}
	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return err
	}

	// The paper sets the runtime constraint so that roughly half of the
	// configurations satisfy it, and the medium budget to 3x the expected
	// bootstrap cost.
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return err
	}
	opts := lynceus.Options{
		Budget:            36 * job.MeanCost(), // N=12 bootstrap samples x b=3
		MaxRuntimeSeconds: tmax,
		Seed:              *seed,
	}
	optimum, err := job.Optimum(tmax)
	if err != nil {
		return err
	}
	fmt.Printf("job %s: %d configurations, Tmax %.0fs, budget %.2f$, optimum %.4f$\n",
		job.Name(), job.Size(), tmax, opts.Budget, optimum.Cost)

	tuner, err := lynceus.NewTuner(lynceus.TunerConfig{Lookahead: *lookahead})
	if err != nil {
		return err
	}
	bo := lynceus.NewBOBaseline()

	for _, opt := range []lynceus.Optimizer{tuner, bo} {
		res, err := opt.Optimize(env, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", opt.Name(), err)
		}
		fmt.Printf("\n%s:\n", opt.Name())
		fmt.Printf("  explorations: %d, budget spent: %.2f$\n", res.Explorations, res.SpentBudget)
		fmt.Printf("  recommended:  %s\n", job.Space().Describe(res.Recommended.Config))
		fmt.Printf("  runtime %.0fs, cost %.4f$, CNO %.3f (feasible: %v)\n",
			res.Recommended.RuntimeSeconds, res.Recommended.Cost,
			res.Recommended.Cost/optimum.Cost, res.RecommendedFeasible)
	}
	return nil
}
