// Package lynceus is the public API of the Lynceus reproduction: a
// budget-aware, long-sighted Bayesian-optimization tuner that jointly selects
// the cloud configuration (VM type, cluster size) and the job parameters
// (e.g. hyper-parameters) minimizing the monetary cost of a recurrent data
// analytic job under a maximum-runtime constraint and a profiling budget
// (Casimiro et al., "Lynceus: Cost-efficient Tuning and Provisioning of Data
// Analytic Jobs", ICDCS 2020).
//
// The typical flow is:
//
//  1. describe the configuration space (NewSpace) or load a profiled lookup
//     table (ReadJobCSV / synthetic generators);
//  2. wrap it in an Environment (NewJobEnvironment), or implement Environment
//     against a real cloud;
//  3. create a tuner (NewTuner) and call Optimize with a budget and a
//     runtime constraint;
//  4. deploy the recommended configuration from the returned Result.
//
// The package also exposes the BO and random baselines and the evaluation
// harness used to reproduce the paper's figures.
package lynceus

import (
	"fmt"
	"io"

	"repro/internal/bagging"
	"repro/internal/baselines"
	"repro/internal/configspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/servesim"
	"repro/internal/simulator"
	"repro/internal/synth"
)

// Core domain types, re-exported from the internal packages so that library
// users never import repro/internal/... directly.
type (
	// Dimension is one axis of a configuration space.
	Dimension = configspace.Dimension
	// Space is a finite configuration space.
	Space = configspace.Space
	// Config is one configuration of a space.
	Config = configspace.Config
	// Job is a profiled job: a space plus one measurement per configuration.
	Job = dataset.Job
	// Measurement is the profiling outcome of one configuration.
	Measurement = dataset.Measurement
	// Environment abstracts "deploy configuration x, run the job, observe
	// runtime and cost".
	Environment = optimizer.Environment
	// Trial is the outcome of profiling one configuration during tuning.
	Trial = optimizer.TrialResult
	// Constraint is one "metric <= threshold" requirement.
	Constraint = optimizer.Constraint
	// SetupCostFunc estimates the cost of switching between deployments.
	SetupCostFunc = optimizer.SetupCostFunc
	// Options configures a tuning run (budget, runtime constraint, seed, ...).
	Options = optimizer.Options
	// Result is the outcome of a tuning run.
	Result = optimizer.Result
	// Optimizer is implemented by Lynceus and by the baselines.
	Optimizer = optimizer.Optimizer
	// EvaluationConfig configures a repeated-runs evaluation campaign: the
	// job, the number of runs, the budget multiplier b, the base seed and the
	// worker count. The methodology itself is fixed (§5.2): Tmax admits half
	// of the configurations, every run bootstraps the default LHS sample, and
	// the budget is b times the bootstrap's expected cost.
	EvaluationConfig = simulator.Config
	// Evaluation aggregates the metrics of an evaluation campaign.
	Evaluation = simulator.JobResult
)

// NewSpace builds a configuration space from the Cartesian product of dims,
// optionally restricted by filter (nil keeps every combination).
// Configurations are decoded on demand from their dense ID, so a 10^5+-point
// space costs no per-configuration memory; combine large spaces with
// TunerConfig.Search "sampled" (or the automatic default) to keep
// per-decision planning cost bounded.
func NewSpace(dims []Dimension, filter func(indices []int) bool) (*Space, error) {
	return configspace.New(dims, filter)
}

// NewJob builds a profiled job from a space and one measurement per
// configuration. timeoutSeconds is the forceful-termination limit used during
// profiling (0 when none).
func NewJob(name string, space *Space, measurements []Measurement, timeoutSeconds float64) (*Job, error) {
	return dataset.NewJob(name, space, measurements, timeoutSeconds)
}

// ReadJobCSV parses a profiled job from CSV (see WriteJobCSV for the format).
func ReadJobCSV(r io.Reader) (*Job, error) { return dataset.ReadCSV(r) }

// WriteJobCSV serializes a profiled job as CSV: one column per dimension
// followed by runtime_seconds, unit_price_per_hour, cost, timed_out and
// extra_<metric> columns.
func WriteJobCSV(w io.Writer, job *Job) error { return dataset.WriteCSV(w, job) }

// NewJobEnvironment wraps a profiled job as an Environment that replays its
// measurements, which is how the paper evaluates optimizers.
func NewJobEnvironment(job *Job) (Environment, error) { return optimizer.NewJobEnvironment(job) }

// TunerConfig tunes the Lynceus optimizer itself. The zero value reproduces
// the paper's defaults (lookahead 2, discount 0.9, 3-point Gauss-Hermite
// quadrature, 10-tree bagging ensemble).
type TunerConfig struct {
	// Lookahead is the LA window; negative values are invalid. The special
	// value 0 means "use the paper default (2)"; use Myopic to request LA=0.
	Lookahead int
	// Myopic requests the LA=0 variant (cost-normalized greedy selection).
	Myopic bool
	// Discount is the discount factor γ applied to future rewards (0 = paper
	// default 0.9).
	Discount float64
	// GHOrder is the Gauss-Hermite order K (0 = paper default 3).
	GHOrder int
	// EnsembleTrees is the bagging ensemble size (0 = paper default 10).
	EnsembleTrees int
	// CostModel selects the regression model family: "bagging" (default, the
	// paper's ensemble of regression trees) or "gp" (Gaussian Process, the
	// paper's footnote-1 alternative).
	CostModel string
	// Workers bounds path-evaluation parallelism (0 = GOMAXPROCS). The
	// recommendation never depends on the worker count.
	Workers int
	// Search selects the candidate search strategy; the zero value picks
	// automatically based on the space size.
	Search SearchConfig
	// SpeculativeRefit selects how the planner retrains its models along
	// speculative lookahead paths:
	//
	//   - "" or "auto": "full" for paper-scale searches, "incremental" once
	//     lookahead × per-decision candidates make full refits dominant
	//     (lookahead ≥ 3, or the product reaching 2048);
	//   - "full": every speculated outcome refits the whole model ensemble
	//     from the extended training set — the paper's exact behavior,
	//     bitwise-pinned by the golden campaign tests;
	//   - "incremental": every speculated outcome clones the parent models
	//     and folds the one speculated sample in (online leaf updates on the
	//     regression trees), an order of magnitude cheaper per speculation.
	//     Recommendation quality matches "full" statistically (enforced by
	//     parity tests), not bitwise. Requires the bagging cost model.
	SpeculativeRefit string
}

// SearchConfig selects which untested configurations the planner considers at
// each decision (TunerConfig.Search).
type SearchConfig struct {
	// Strategy names the strategy:
	//
	//   - "" (auto): "exhaustive" for spaces up to 4096 configurations,
	//     "sampled" above — small spaces keep the paper's behavior, large
	//     ones stay tractable without further configuration;
	//   - "exhaustive": every untested configuration is scored at every
	//     decision (the paper's behavior; recommendations are
	//     bitwise-identical to pre-strategy versions of this library);
	//   - "sampled": a deterministic, seeded subsample of at most SampleSize
	//     untested configurations per decision, keeping per-decision planning
	//     cost roughly constant as the space grows; the subsample depends
	//     only on (seed, decision index), never on worker count.
	Strategy string
	// SampleSize bounds the per-decision candidate set of the "sampled"
	// strategy (0 = default 1024). Ignored by the other strategies.
	SampleSize int
}

// searchStrategy maps the public config to a core strategy (nil = auto).
func (c SearchConfig) searchStrategy() (core.SearchStrategy, error) {
	switch c.Strategy {
	case "":
		if c.SampleSize != 0 {
			return core.Sampled{Size: c.SampleSize}, nil
		}
		return nil, nil
	case "exhaustive":
		return core.Exhaustive{}, nil
	case "sampled":
		return core.Sampled{Size: c.SampleSize}, nil
	default:
		return nil, fmt.Errorf("lynceus: unknown search strategy %q (want \"\", %q or %q)",
			c.Strategy, "exhaustive", "sampled")
	}
}

// NewTuner creates a Lynceus tuner.
func NewTuner(cfg TunerConfig) (Optimizer, error) {
	return newCoreTuner(cfg)
}

// newCoreTuner builds the concrete core optimizer behind NewTuner; the
// campaign API (StartTuner / ResumeTuner) needs the concrete type.
func newCoreTuner(cfg TunerConfig) (*core.Lynceus, error) {
	lookahead := cfg.Lookahead
	if lookahead == 0 && !cfg.Myopic {
		lookahead = core.DefaultLookahead
	}
	if cfg.Myopic {
		lookahead = 0
	}
	if cfg.Lookahead < 0 {
		return nil, fmt.Errorf("lynceus: negative lookahead %d", cfg.Lookahead)
	}
	search, err := cfg.Search.searchStrategy()
	if err != nil {
		return nil, err
	}
	var refit core.SpeculativeRefit
	switch cfg.SpeculativeRefit {
	case "", "auto":
		refit = core.SpecRefitAuto
	case "full":
		refit = core.SpecRefitFull
	case "incremental":
		refit = core.SpecRefitIncremental
	default:
		return nil, fmt.Errorf("lynceus: unknown speculative-refit mode %q (want \"\", %q, %q or %q)",
			cfg.SpeculativeRefit, "auto", "full", "incremental")
	}
	params := core.Params{
		Lookahead:        lookahead,
		Discount:         cfg.Discount,
		GHOrder:          cfg.GHOrder,
		Model:            bagging.Params{NumTrees: cfg.EnsembleTrees},
		Workers:          cfg.Workers,
		Search:           search,
		SpeculativeRefit: refit,
	}
	switch cfg.CostModel {
	case "", string(model.KindBagging):
		// Default bagging factory is created per optimization run so it can
		// be seeded from Options.Seed.
	case string(model.KindGP):
		params.ModelFactory = model.NewGPFactory()
	default:
		return nil, fmt.Errorf("lynceus: unknown cost model %q (want %q or %q)",
			cfg.CostModel, model.KindBagging, model.KindGP)
	}
	return core.New(params)
}

// NewBOBaseline creates the CherryPick/Arrow-style greedy constrained-EI
// Bayesian optimizer used as the main baseline in the paper.
func NewBOBaseline() Optimizer {
	return baselines.NewBO(baselines.BOParams{})
}

// NewRandomBaseline creates the RND baseline, which profiles random
// configurations until the budget is exhausted.
func NewRandomBaseline() Optimizer { return baselines.NewRandom() }

// Tune is a convenience one-shot helper: it runs the default Lynceus tuner
// (LA=2) against the environment with the given options.
func Tune(env Environment, opts Options) (Result, error) {
	tuner, err := NewTuner(TunerConfig{})
	if err != nil {
		return Result{}, err
	}
	return tuner.Optimize(env, opts)
}

// Evaluate runs an optimizer repeatedly against a profiled job, replaying the
// stored measurements and aggregating CNO/NEX metrics as in the paper's
// evaluation methodology.
func Evaluate(opt Optimizer, cfg EvaluationConfig) (Evaluation, error) {
	return simulator.Evaluate(opt, cfg)
}

// Synthetic datasets ---------------------------------------------------------

// SyntheticTensorflowJobs generates the three Tensorflow-style jobs (cnn,
// rnn, multilayer) with the 384-point, 5-dimensional configuration space of
// the paper's §5.1.1.
func SyntheticTensorflowJobs(seed int64) ([]*Job, error) { return synth.TensorflowJobs(seed) }

// SyntheticTensorflowJob generates one Tensorflow-style job by name ("cnn",
// "rnn" or "multilayer").
func SyntheticTensorflowJob(name string, seed int64) (*Job, error) {
	for _, kind := range synth.TensorflowKinds() {
		if kind.String() == name {
			return synth.TensorflowJob(kind, seed)
		}
	}
	return nil, fmt.Errorf("lynceus: unknown tensorflow job %q (want cnn, rnn or multilayer)", name)
}

// SyntheticScoutJobs generates the 18 Scout-style Hadoop/Spark jobs of §5.1.2.
func SyntheticScoutJobs(seed int64) ([]*Job, error) { return synth.ScoutJobs(seed) }

// SyntheticScoutJob generates one Scout-style job by name ("hibench-sort",
// for one), identical to its entry in SyntheticScoutJobs.
func SyntheticScoutJob(name string, seed int64) (*Job, error) { return synth.ScoutJob(name, seed) }

// SyntheticCherryPickJobs generates the 5 CherryPick-style jobs of §5.1.2.
func SyntheticCherryPickJobs(seed int64) ([]*Job, error) { return synth.CherryPickJobs(seed) }

// LargeGridJob is a production-scale analytic workload: an Environment whose
// runtime and cost are computed on demand from a closed-form performance
// model — nothing is precomputed, so 10^5+-point spaces cost no memory beyond
// their dimensions. Its ApproxStats
// method estimates a runtime quantile and the mean cost from a deterministic
// sample, which is how campaigns pick a budget and runtime constraint
// without sweeping the space.
type LargeGridJob = synth.LargeGridEnv

// SyntheticLargeGridJobs returns the three production-scale large-grid
// workloads ("large-etl", "large-training", "large-analytics") over
// 61,440-configuration spaces. Use them to exercise the "sampled"
// search strategy and the block-wise sweeps at 10^4-10^5+ points.
func SyntheticLargeGridJobs(seed int64) ([]*LargeGridJob, error) {
	return synth.LargeGridJobs(seed)
}

// SyntheticLargeGridJob returns one large-grid workload by name with
// clusterSizes node-count values (<= 0 selects the default 128, i.e. a
// 61,440-configuration space; 512 yields ~246k, 1024 ~492k). The space size
// is 480 x clusterSizes.
func SyntheticLargeGridJob(name string, clusterSizes int, seed int64) (*LargeGridJob, error) {
	for _, kind := range synth.LargeGridKinds() {
		if kind.String() == name {
			return synth.NewLargeGridEnv(kind, clusterSizes, seed)
		}
	}
	return nil, fmt.Errorf("lynceus: unknown large-grid job %q (want large-etl, large-training or large-analytics)", name)
}

// EnergyMetric is the name of the synthetic energy metric attached to the
// Tensorflow jobs; use it with Constraint to exercise the multi-constraint
// extension.
const EnergyMetric = synth.EnergyMetric

// Simulated serving environment ----------------------------------------------

// ServingEnvironment is a seeded discrete-event simulation of an LLM
// inference cluster wrapped as an Environment: the tuner selects replica
// count, instance type, max-batch and scheduler policy to minimize the dollar
// cost of serving a fixed request volume under a makespan constraint and an
// SLO-attainment constraint (pass its Constraint method via
// Options.ExtraConstraints). Unlike the lookup-table workloads, every Run is
// stochastic — repeated runs of one configuration observe different costs —
// while any fixed trial sequence stays bitwise reproducible for a given seed.
// Its True and Optimum methods compute seed-averaged analytic ground truth,
// and ApproxStats estimates a makespan quantile and mean run cost for picking
// the constraint and budget.
type ServingEnvironment = servesim.Env

// ServingProfiles lists the built-in serving scenarios: "chat"
// (latency-dominated interactive mix), "code" (long prompts, KV-pressure
// dominated) and "batch" (throughput-dominated, loose SLOs).
func ServingProfiles() []string { return servesim.Profiles() }

// NewServingEnvironment creates the simulated serving environment of a named
// profile over its default 384-point configuration space. The seed drives the
// per-run observation noise.
func NewServingEnvironment(profile string, seed int64) (*ServingEnvironment, error) {
	return servesim.NewProfileEnv(profile, seed)
}

// SLOViolationMetric is the extra-metric name under which a
// ServingEnvironment reports the fraction of requests that missed their
// latency SLO.
const SLOViolationMetric = servesim.SLOViolationMetric
