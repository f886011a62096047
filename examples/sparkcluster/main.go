// Spark cluster-provisioning example: pick the cheapest EC2 cluster (VM
// family, size, machine count) for Hadoop/Spark analytics jobs, the scenario
// of the Scout and CherryPick datasets (paper §5.1.2).
//
// The example evaluates Lynceus, BO and random search on a few Scout-style
// jobs using the repeated-runs harness, and prints the CNO statistics that
// Figure 5 reports.
//
//	go run ./examples/sparkcluster
//	go run ./examples/sparkcluster -jobs 6 -runs 10
package main

import (
	"flag"
	"fmt"
	"os"

	lynceus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparkcluster:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		jobCount = flag.Int("jobs", 3, "number of Scout-style jobs to provision")
		runs     = flag.Int("runs", 5, "optimization runs per job and optimizer")
		seed     = flag.Int64("seed", 1, "base seed")
	)
	flag.Parse()

	jobs, err := lynceus.SyntheticScoutJobs(42)
	if err != nil {
		return err
	}
	if *jobCount < len(jobs) {
		jobs = jobs[:*jobCount]
	}

	tuner, err := lynceus.NewTuner(lynceus.TunerConfig{Lookahead: 1})
	if err != nil {
		return err
	}
	bo := lynceus.NewBOBaseline()
	optimizers := []lynceus.Optimizer{tuner, bo, lynceus.NewRandomBaseline()}

	fmt.Printf("%-22s %-14s %8s %8s %8s %8s\n", "job", "optimizer", "cno_avg", "cno_p90", "nex_avg", "spent$")
	for _, job := range jobs {
		for _, opt := range optimizers {
			eval, err := lynceus.Evaluate(opt, lynceus.EvaluationConfig{
				Job:      job,
				Runs:     *runs,
				BaseSeed: *seed,
			})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", opt.Name(), job.Name(), err)
			}
			cno, err := eval.CNOSummary()
			if err != nil {
				return err
			}
			nex, err := eval.NEXSummary()
			if err != nil {
				return err
			}
			spent := 0.0
			for _, run := range eval.Runs {
				spent += run.SpentBudget
			}
			spent /= float64(len(eval.Runs))
			fmt.Printf("%-22s %-14s %8.3f %8.3f %8.1f %8.2f\n",
				job.Name(), opt.Name(), cno.Mean, cno.P90, nex.Mean, spent)
		}
	}
	fmt.Println("\nLower CNO is better (1.0 = the optimizer recommended the true cheapest feasible cluster).")
	return nil
}
