package lynceus_test

import (
	"fmt"

	lynceus "repro"
)

// Example_multiconstraint adds a "metric ≤ cap" constraint next to the
// runtime constraint, the paper's §4.4 multi-constraint extension: the
// synthetic Tensorflow jobs attach an energy figure to every configuration,
// and an energy cap the cheapest configuration breaks moves the
// recommendation to a costlier one that meets it. The planner fits one model
// per constrained metric and recommends only trials that met every cap.
//
// When not to use it: each extra constraint multiplies the outcomes a
// lookahead path speculates on by the Gauss-Hermite order, so at lookahead 2
// and above a multi-constraint decision costs several times a plain one. If a
// metric is a fixed function of the configuration (say, VM count), filter the
// space instead (lynceus.NewSpace's filter).
func Example_multiconstraint() {
	job := must(lynceus.SyntheticTensorflowJob("cnn", 42))
	env := must(lynceus.NewJobEnvironment(job))
	tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1}))
	opts := lynceus.Options{
		Budget:            8 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		Seed:              1,
	}
	for _, energyCap := range []float64{0, 0.16} {
		label := "runtime only"
		if energyCap > 0 {
			opts.ExtraConstraints = []lynceus.Constraint{{Metric: lynceus.EnergyMetric, Max: energyCap}}
			label = fmt.Sprintf("energy ≤ %.2f", energyCap)
		}
		res := must(tuner.Optimize(env, opts))
		fmt.Printf("%-13s config %d: %.4f$, energy %.3f (feasible: %v)\n", label, res.Recommended.Config.ID,
			res.Recommended.Cost, res.Recommended.Extra[lynceus.EnergyMetric], res.RecommendedFeasible)
	}
	// Output:
	// runtime only  config 10: 0.0122$, energy 0.171 (feasible: true)
	// energy ≤ 0.16 config 17: 0.0222$, energy 0.140 (feasible: true)
}

// Example_setupcost charges the cost of switching deployments (new VMs,
// reloaded data) against the budget, the paper's §4.4 setup-cost extension:
// the same Spark job and budget, once with free switches and once with a fee
// whenever the VM family or size changes. The fee buys fewer explorations,
// and the planner keeps trial plus setup cost within the budget.
//
// When not to use it: if every trial redeploys from scratch anyway, a setup
// cost is a constant per trial and only shrinks the budget; fold it into the
// budget instead. A campaign with a setup-cost function is neither shared
// across campaigns nor resumable without re-supplying the function
// (lynceus.ResumeTunerShared's ResumeFuncs).
func Example_setupcost() {
	job := must(lynceus.SyntheticScoutJob("hibench-sort", 42))
	env := must(lynceus.NewJobEnvironment(job))
	tuner := must(lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1}))
	opts := lynceus.Options{
		Budget:            9 * job.MeanCost(),
		MaxRuntimeSeconds: must(job.RuntimeForFeasibleFraction(0.5)),
		Seed:              1,
	}
	for _, fee := range []float64{0, 0.20} {
		if fee > 0 {
			opts.SetupCost = func(from *lynceus.Config, to lynceus.Config) float64 {
				if from != nil && from.Indices[0] == to.Indices[0] && from.Indices[1] == to.Indices[1] {
					return 0 // resizing within one VM family and size is free
				}
				return fee
			}
		}
		res := must(tuner.Optimize(env, opts))
		trialCosts := 0.0
		for _, tr := range res.Trials {
			trialCosts += tr.Cost
		}
		fmt.Printf("fee %.2f$: %d explorations, %.2f$ trials + %.2f$ setup = %.2f$ of %.2f$, recommends %s\n",
			fee, res.Explorations, trialCosts, res.SpentBudget-trialCosts, res.SpentBudget, res.InitialBudget,
			job.Space().Describe(res.Recommended.Config))
	}
	// Output:
	// fee 0.00$: 7 explorations, 5.00$ trials + 0.00$ setup = 5.00$ of 5.81$, recommends vm_family=c4 vm_size=xlarge machines=20
	// fee 0.20$: 6 explorations, 4.47$ trials + 0.80$ setup = 5.27$ of 5.81$, recommends vm_family=m4 vm_size=2xlarge machines=12
}
