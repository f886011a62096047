// Setup-cost example: exercise the §4.4 extension that charges the cost of
// switching between deployments (booting new VMs, reloading data, warming up)
// against the exploration budget.
//
// The example tunes a Scout-style Spark job twice with the same budget — once
// ignoring setup costs and once charging a fee whenever the cluster's VM
// family or size changes — and reports how the charge reduces the number of
// explorations the budget can pay for.
//
//	go run ./examples/setupcost
package main

import (
	"flag"
	"fmt"
	"os"

	lynceus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "setupcost:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		switchFee = flag.Float64("switch-fee", 0.05, "cost in USD charged when the deployed VM family or size changes")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	// hibench-sort: shuffle-heavy, interesting cost surface.
	target, err := lynceus.SyntheticScoutJob("hibench-sort", 42)
	if err != nil {
		return err
	}
	env, err := lynceus.NewJobEnvironment(target)
	if err != nil {
		return err
	}
	tmax, err := target.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return err
	}

	tuner, err := lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1})
	if err != nil {
		return err
	}
	base := lynceus.Options{
		Budget:            9 * target.MeanCost(),
		MaxRuntimeSeconds: tmax,
		Seed:              *seed,
	}
	fmt.Printf("provisioning %s: %d configurations, Tmax %.0fs, budget %.2f$\n\n",
		target.Name(), target.Size(), tmax, base.Budget)

	// Run 1: deployment switches are free.
	free, err := tuner.Optimize(env, base)
	if err != nil {
		return err
	}
	report(target, "no setup costs", free)

	// Run 2: switching the VM family or size costs money (new AMIs, data
	// reload); resizing within the same family/size is free.
	withFee := base
	withFee.SetupCost = func(from *lynceus.Config, to lynceus.Config) float64 {
		if from == nil {
			return *switchFee // first deployment still has to be brought up
		}
		sameFamily := from.Indices[0] == to.Indices[0]
		sameSize := from.Indices[1] == to.Indices[1]
		if sameFamily && sameSize {
			return 0
		}
		return *switchFee
	}
	charged, err := tuner.Optimize(env, withFee)
	if err != nil {
		return err
	}
	report(target, fmt.Sprintf("%.2f$ per family/size switch", *switchFee), charged)

	fmt.Printf("setup charges consumed %.2f$ of the budget, leaving room for %d explorations instead of %d\n",
		charged.SpentBudget-sumCosts(charged), charged.Explorations, free.Explorations)
	return nil
}

func report(job *lynceus.Job, label string, res lynceus.Result) {
	fmt.Printf("[%s]\n", label)
	fmt.Printf("  explorations: %d, spent %.2f$ (trial costs %.2f$)\n",
		res.Explorations, res.SpentBudget, sumCosts(res))
	fmt.Printf("  recommended:  %s (cost %.4f$, feasible %v)\n\n",
		job.Space().Describe(res.Recommended.Config), res.Recommended.Cost, res.RecommendedFeasible)
}

func sumCosts(res lynceus.Result) float64 {
	sum := 0.0
	for _, tr := range res.Trials {
		sum += tr.Cost
	}
	return sum
}
