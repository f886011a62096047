// Command lynceus-tune runs the Lynceus tuner (or one of the baselines)
// against a profiled job stored as a CSV lookup table — or against a
// simulated LLM serving cluster — and prints the recommended configuration
// together with the exploration log.
//
// Usage:
//
//	lynceus-datagen -dataset tensorflow -job cnn -out data/
//	lynceus-tune -dataset data/cnn.csv -budget 2.5 -tmax 300
//	lynceus-tune -dataset data/cnn.csv -budget-multiplier 3 -optimizer bo
//	lynceus-tune -servesim chat -seed 7 -v
package main

import (
	"flag"
	"fmt"
	"os"

	lynceus "repro"
	"repro/internal/atomicfile"
	"repro/internal/lhs"
	"repro/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lynceus-tune:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		datasetPath      = flag.String("dataset", "", "path to the job's CSV lookup table (required unless -servesim is given)")
		servesimProfile  = flag.String("servesim", "", "tune a simulated LLM serving cluster instead of a CSV dataset: profile name (chat, code or batch)")
		budget           = flag.Float64("budget", 0, "profiling budget in USD (overrides -budget-multiplier)")
		budgetMultiplier = flag.Float64("budget-multiplier", 3, "budget as a multiple of the expected bootstrap cost (paper's b parameter)")
		tmax             = flag.Float64("tmax", 0, "maximum acceptable job runtime in seconds (0 = derive so half of the configurations qualify)")
		feasibleFraction = flag.Float64("feasible-fraction", 0.5, "fraction of configurations that must satisfy the derived runtime constraint")
		optimizerName    = flag.String("optimizer", "lynceus", "optimizer to use: lynceus, bo or rnd")
		lookahead        = flag.Int("lookahead", 2, "Lynceus lookahead window (0 = myopic cost-aware variant)")
		seed             = flag.Int64("seed", 1, "random seed")
		verbose          = flag.Bool("v", false, "print every exploration, not only the recommendation")
		cpuProfile       = flag.String("cpuprofile", "", "write a CPU profile of the tuning run to this file")
		memProfile       = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		checkpoint       = flag.String("checkpoint", "", "write a campaign snapshot to this file after every trial (requires -optimizer lynceus)")
		resume           = flag.String("resume", "", "resume the campaign from this snapshot file instead of starting fresh (requires -optimizer lynceus)")
		faultRate        = flag.Float64("fault-rate", 0, "inject transient failures with this per-attempt probability (deterministic fault stream)")
		faultSeed        = flag.Int64("fault-seed", 0, "seed of the injected fault stream (0 = derive from -seed)")
		retryAttempts    = flag.Int("retry-attempts", 3, "profiling attempts per configuration before quarantining it")
	)
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintln(os.Stderr, "lynceus-tune:", err)
		}
	}()

	cf := campaignFlags{
		checkpoint:    *checkpoint,
		resume:        *resume,
		faultRate:     *faultRate,
		faultSeed:     *faultSeed,
		retryAttempts: *retryAttempts,
	}

	var t target
	switch {
	case *servesimProfile != "" && *datasetPath != "":
		return fmt.Errorf("-dataset and -servesim are mutually exclusive")
	case *servesimProfile != "":
		t, err = servesimTarget(*servesimProfile, *tmax, *feasibleFraction, *seed)
	case *datasetPath == "":
		return fmt.Errorf("missing required -dataset flag (or -servesim)")
	default:
		t, err = datasetTarget(*datasetPath, *tmax, *feasibleFraction)
	}
	if err != nil {
		return err
	}
	return tune(t, *budget, *budgetMultiplier, *optimizerName, *lookahead, *seed, *verbose, cf)
}

// target is what differs between tuning a CSV lookup table and a simulated
// serving cluster: the environment, its runtime constraint, the mean run cost
// the default budget scales, and the mode's own output lines.
type target struct {
	env         lynceus.Environment
	maxRuntime  float64
	meanCost    float64
	constraints []lynceus.Constraint
	// header prints the first line of the output.
	header func(budget float64, optimizer string)
	// trial formats one exploration's measurements for the -v log.
	trial func(tr lynceus.Trial) string
	// report prints the recommendation's measurements and its CNO.
	report func(res lynceus.Result)
}

// datasetTarget reads a job's CSV lookup table. The runtime constraint
// defaults to the one admitting the feasible fraction of its configurations.
func datasetTarget(path string, tmax, feasibleFraction float64) (target, error) {
	f, err := os.Open(path)
	if err != nil {
		return target{}, fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	job, err := lynceus.ReadJobCSV(f)
	if err != nil {
		return target{}, fmt.Errorf("parsing dataset: %w", err)
	}
	maxRuntime := tmax
	if maxRuntime <= 0 {
		maxRuntime, err = job.RuntimeForFeasibleFraction(feasibleFraction)
		if err != nil {
			return target{}, fmt.Errorf("deriving runtime constraint: %w", err)
		}
	}
	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return target{}, err
	}
	return target{
		env:        env,
		maxRuntime: maxRuntime,
		meanCost:   job.MeanCost(),
		header: func(budget float64, optimizer string) {
			fmt.Printf("job=%s configs=%d budget=%.4f$ tmax=%.1fs optimizer=%s\n",
				job.Name(), job.Size(), budget, maxRuntime, optimizer)
		},
		trial: func(tr lynceus.Trial) string {
			return fmt.Sprintf("runtime=%7.1fs cost=%.4f$", tr.RuntimeSeconds, tr.Cost)
		},
		report: func(res lynceus.Result) {
			fmt.Printf("  runtime %.1fs, cost %.4f$ per execution (feasible: %v)\n",
				res.Recommended.RuntimeSeconds, res.Recommended.Cost, res.RecommendedFeasible)
			if opt, err := job.Optimum(maxRuntime); err == nil {
				fmt.Printf("  cost normalized to the true optimum (CNO): %.3f\n", res.Recommended.Cost/opt.Cost)
			}
		},
	}, nil
}

// servesimTarget builds a simulated LLM serving cluster. The runtime
// constraint defaults to the feasible-fraction quantile of an analytic
// makespan subsample, and the mean cost comes from the same subsample: both
// are computed from the simulator's seed-independent ground-truth streams.
func servesimTarget(profile string, tmax, feasibleFraction float64, seed int64) (target, error) {
	env, err := lynceus.NewServingEnvironment(profile, seed)
	if err != nil {
		return target{}, err
	}
	quantile, meanCost, err := env.ApproxStats(feasibleFraction, 96)
	if err != nil {
		return target{}, fmt.Errorf("estimating makespan stats: %w", err)
	}
	maxRuntime := tmax
	if maxRuntime <= 0 {
		maxRuntime = quantile
	}
	return target{
		env:         env,
		maxRuntime:  maxRuntime,
		meanCost:    meanCost,
		constraints: []lynceus.Constraint{env.Constraint()},
		header: func(budget float64, optimizer string) {
			fmt.Printf("profile=%s configs=%d budget=%.4f$ tmax=%.1fs max-slo-violation=%.2f optimizer=%s\n",
				profile, env.Space().Size(), budget, maxRuntime, env.Scenario().MaxSLOViolation, optimizer)
		},
		trial: func(tr lynceus.Trial) string {
			return fmt.Sprintf("makespan=%6.1fs slo-violation=%.3f cost=%.4f$",
				tr.RuntimeSeconds, tr.Extra[lynceus.SLOViolationMetric], tr.Cost)
		},
		report: func(res lynceus.Result) {
			fmt.Printf("  makespan %.1fs, slo-violation %.3f, cost %.4f$ per run (feasible: %v)\n",
				res.Recommended.RuntimeSeconds, res.Recommended.Extra[lynceus.SLOViolationMetric],
				res.Recommended.Cost, res.RecommendedFeasible)
			if best, err := env.Optimum(maxRuntime, 3); err == nil {
				got, err := env.True(res.Recommended.Config.ID, 3)
				if err == nil {
					fmt.Printf("  true cost normalized to the analytic optimum (CNO): %.3f\n", got.MeanCost/best.MeanCost)
				}
			}
		},
	}, nil
}

// tune runs one tuning campaign on t and prints its outcome. A budget of 0
// defaults to the expected bootstrap cost scaled by budgetMultiplier (the
// paper's b parameter).
func tune(t target, budget, budgetMultiplier float64, optimizerName string, lookahead int, seed int64, verbose bool, cf campaignFlags) error {
	space := t.env.Space()
	if budget <= 0 {
		bootstrap, err := lhs.DefaultBootstrapSize(space)
		if err != nil {
			return err
		}
		budget = float64(bootstrap) * t.meanCost * budgetMultiplier
	}
	r, err := newRunner(optimizerName, lookahead, cf)
	if err != nil {
		return err
	}
	env, err := cf.wrapEnv(t.env, seed)
	if err != nil {
		return err
	}
	t.header(budget, r.Name())

	res, err := r.Optimize(env, lynceus.Options{
		Budget:            budget,
		MaxRuntimeSeconds: t.maxRuntime,
		Seed:              seed,
		ExtraConstraints:  t.constraints,
		Retry:             cf.retry(),
	})
	if err != nil {
		return fmt.Errorf("optimizing: %w", err)
	}

	if verbose {
		fmt.Println("\nexploration log:")
		for i, tr := range res.Trials {
			fmt.Printf("  %3d  %-60s %s\n", i+1, space.Describe(tr.Config), t.trial(tr))
		}
	}

	fmt.Printf("\nexplorations: %d\nbudget spent: %.4f$ of %.4f$\n", res.Explorations, res.SpentBudget, res.InitialBudget)
	fmt.Printf("recommended:  %s\n", space.Describe(res.Recommended.Config))
	t.report(res)
	return nil
}

// campaignFlags carries the fault-tolerance options shared by both tuning
// paths: checkpointing, resuming, deterministic fault injection and retries.
type campaignFlags struct {
	checkpoint    string
	resume        string
	faultRate     float64
	faultSeed     int64
	retryAttempts int
}

// wrapEnv wraps the environment with deterministic fault injection when
// -fault-rate is set. A quarter of each failed run's cost is billed, as a
// preempted cloud run would be.
func (c campaignFlags) wrapEnv(env lynceus.Environment, seed int64) (lynceus.Environment, error) {
	if c.faultRate <= 0 {
		return env, nil
	}
	fs := c.faultSeed
	if fs == 0 {
		fs = seed
	}
	return lynceus.NewFaultyEnvironment(env, lynceus.FaultParams{
		Seed:               fs,
		TransientRate:      c.faultRate,
		FailedCostFraction: 0.25,
	})
}

// retry builds the retry policy: -retry-attempts attempts with quarantine as
// graceful degradation. No backoff sleeps — simulated failures retry
// instantly.
func (c campaignFlags) retry() lynceus.RetryPolicy {
	return lynceus.RetryPolicy{MaxAttempts: c.retryAttempts, Quarantine: true}
}

// runner runs one tuning campaign; the lynceus implementation supports
// checkpointing and resuming, the baselines run in one shot.
type runner interface {
	Name() string
	Optimize(env lynceus.Environment, opts lynceus.Options) (lynceus.Result, error)
}

// newRunner constructs the requested optimizer's runner.
func newRunner(name string, lookahead int, cf campaignFlags) (runner, error) {
	if name == "lynceus" {
		return &campaignRunner{
			cfg: lynceus.TunerConfig{Lookahead: lookahead, Myopic: lookahead == 0},
			cf:  cf,
		}, nil
	}
	if cf.checkpoint != "" || cf.resume != "" {
		return nil, fmt.Errorf("-checkpoint and -resume require -optimizer lynceus, got %q", name)
	}
	switch name {
	case "bo":
		return baselineRunner{lynceus.NewBOBaseline()}, nil
	case "rnd":
		return baselineRunner{lynceus.NewRandomBaseline()}, nil
	}
	return nil, fmt.Errorf("unknown optimizer %q (want lynceus, bo or rnd)", name)
}

type baselineRunner struct{ opt lynceus.Optimizer }

func (r baselineRunner) Name() string { return r.opt.Name() }
func (r baselineRunner) Optimize(env lynceus.Environment, opts lynceus.Options) (lynceus.Result, error) {
	return r.opt.Optimize(env, opts)
}

// campaignRunner drives a stepwise Lynceus campaign, snapshotting after every
// trial when -checkpoint is set and resuming from -resume when given.
type campaignRunner struct {
	cfg lynceus.TunerConfig
	cf  campaignFlags
}

func (r *campaignRunner) Name() string {
	lookahead := r.cfg.Lookahead
	if r.cfg.Myopic {
		lookahead = 0
	}
	return fmt.Sprintf("lynceus-la%d", lookahead)
}

func (r *campaignRunner) Optimize(env lynceus.Environment, opts lynceus.Options) (lynceus.Result, error) {
	var (
		t   *lynceus.Tuner
		err error
	)
	if r.cf.resume != "" {
		data, rerr := os.ReadFile(r.cf.resume)
		if rerr != nil {
			return lynceus.Result{}, fmt.Errorf("reading snapshot: %w", rerr)
		}
		t, err = lynceus.ResumeTuner(r.cfg, env, data)
	} else {
		t, err = lynceus.StartTuner(r.cfg, env, opts)
	}
	if err != nil {
		return lynceus.Result{}, err
	}
	for {
		done, err := t.Step()
		if err != nil {
			return lynceus.Result{}, err
		}
		if r.cf.checkpoint != "" {
			snap, serr := t.Snapshot()
			if serr != nil {
				return lynceus.Result{}, serr
			}
			if werr := atomicfile.Write(r.cf.checkpoint, snap); werr != nil {
				return lynceus.Result{}, fmt.Errorf("writing checkpoint: %w", werr)
			}
		}
		if done {
			return t.Result()
		}
	}
}
