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
	"repro/internal/optimizer"
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

	if *servesimProfile != "" {
		if *datasetPath != "" {
			return fmt.Errorf("-dataset and -servesim are mutually exclusive")
		}
		return runServesim(*servesimProfile, *budget, *budgetMultiplier, *tmax,
			*feasibleFraction, *optimizerName, *lookahead, *seed, *verbose, cf)
	}
	if *datasetPath == "" {
		return fmt.Errorf("missing required -dataset flag (or -servesim)")
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

	r, err := newRunner(*optimizerName, *lookahead, cf)
	if err != nil {
		return err
	}

	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return err
	}
	env, err = cf.wrapEnv(env, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("job=%s configs=%d budget=%.4f$ tmax=%.1fs optimizer=%s\n",
		job.Name(), job.Size(), totalBudget, maxRuntime, r.Name())

	res, err := r.Optimize(env, lynceus.Options{
		Budget:            totalBudget,
		MaxRuntimeSeconds: maxRuntime,
		Seed:              *seed,
		Retry:             cf.retry(),
	})
	if err != nil {
		return fmt.Errorf("optimizing: %w", err)
	}

	if *verbose {
		fmt.Println("\nexploration log:")
		for i, tr := range res.Trials {
			fmt.Printf("  %3d  %-60s runtime=%7.1fs cost=%.4f$\n",
				i+1, job.Space().Describe(tr.Config), tr.RuntimeSeconds, tr.Cost)
		}
	}

	fmt.Printf("\nexplorations: %d\nbudget spent: %.4f$ of %.4f$\n", res.Explorations, res.SpentBudget, res.InitialBudget)
	fmt.Printf("recommended:  %s\n", job.Space().Describe(res.Recommended.Config))
	fmt.Printf("  runtime %.1fs, cost %.4f$ per execution (feasible: %v)\n",
		res.Recommended.RuntimeSeconds, res.Recommended.Cost, res.RecommendedFeasible)
	if opt, err := job.Optimum(maxRuntime); err == nil {
		fmt.Printf("  cost normalized to the true optimum (CNO): %.3f\n", res.Recommended.Cost/opt.Cost)
	}
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
	var (
		opt lynceus.Optimizer
		err error
	)
	switch name {
	case "bo":
		opt, err = lynceus.NewBOBaseline()
	case "rnd":
		opt = lynceus.NewRandomBaseline()
	default:
		return nil, fmt.Errorf("unknown optimizer %q (want lynceus, bo or rnd)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("creating optimizer: %w", err)
	}
	return baselineRunner{opt}, nil
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

// runServesim tunes a simulated LLM serving cluster instead of a CSV lookup
// table. The runtime constraint defaults to the feasible-fraction quantile of
// an analytic makespan subsample, and the budget to the bootstrap cost scaled
// by -budget-multiplier — mirroring the dataset path, but computed from the
// simulator's seed-independent ground-truth streams.
func runServesim(profile string, budget, budgetMultiplier, tmax, feasibleFraction float64,
	optimizerName string, lookahead int, seed int64, verbose bool, cf campaignFlags) error {
	env, err := lynceus.NewServingEnvironment(profile, seed)
	if err != nil {
		return err
	}
	quantile, meanCost, err := env.ApproxStats(feasibleFraction, 96)
	if err != nil {
		return fmt.Errorf("estimating makespan stats: %w", err)
	}
	maxRuntime := tmax
	if maxRuntime <= 0 {
		maxRuntime = quantile
	}
	totalBudget := budget
	if totalBudget <= 0 {
		bootstrap, err := optimizer.ResolveBootstrapSize(env.Space(), lynceus.Options{Budget: 1, MaxRuntimeSeconds: 1})
		if err != nil {
			return err
		}
		totalBudget = float64(bootstrap) * meanCost * budgetMultiplier
	}
	r, err := newRunner(optimizerName, lookahead, cf)
	if err != nil {
		return err
	}
	tuneEnv, err := cf.wrapEnv(env, seed)
	if err != nil {
		return err
	}

	fmt.Printf("profile=%s configs=%d budget=%.4f$ tmax=%.1fs max-slo-violation=%.2f optimizer=%s\n",
		profile, env.Space().Size(), totalBudget, maxRuntime, env.Scenario().MaxSLOViolation, r.Name())

	res, err := r.Optimize(tuneEnv, lynceus.Options{
		Budget:            totalBudget,
		MaxRuntimeSeconds: maxRuntime,
		Seed:              seed,
		ExtraConstraints:  []lynceus.Constraint{env.Constraint()},
		Retry:             cf.retry(),
	})
	if err != nil {
		return fmt.Errorf("optimizing: %w", err)
	}

	if verbose {
		fmt.Println("\nexploration log:")
		for i, tr := range res.Trials {
			fmt.Printf("  %3d  %-60s makespan=%6.1fs slo-violation=%.3f cost=%.4f$\n",
				i+1, env.Space().Describe(tr.Config), tr.RuntimeSeconds,
				tr.Extra[lynceus.SLOViolationMetric], tr.Cost)
		}
	}

	fmt.Printf("\nexplorations: %d\nbudget spent: %.4f$ of %.4f$\n", res.Explorations, res.SpentBudget, res.InitialBudget)
	fmt.Printf("recommended:  %s\n", env.Space().Describe(res.Recommended.Config))
	fmt.Printf("  makespan %.1fs, slo-violation %.3f, cost %.4f$ per run (feasible: %v)\n",
		res.Recommended.RuntimeSeconds, res.Recommended.Extra[lynceus.SLOViolationMetric],
		res.Recommended.Cost, res.RecommendedFeasible)
	if best, err := env.Optimum(maxRuntime, 3); err == nil {
		got, err := env.True(res.Recommended.Config.ID, 3)
		if err == nil {
			fmt.Printf("  true cost normalized to the analytic optimum (CNO): %.3f\n", got.MeanCost/best.MeanCost)
		}
	}
	return nil
}
