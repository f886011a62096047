// Package optimizer defines the machinery shared by every optimizer in the
// reproduction: the profiling environment abstraction, the optimization
// options (budget, runtime constraint, bootstrap size), the state that
// Algorithm 1 maintains (training set, untested configurations, remaining
// budget, currently deployed configuration), and the final recommendation
// rule.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/configspace"
)

// Campaign-control sentinels. Optimizers and campaign drivers signal *why* a
// run stopped (or could not continue) with these typed errors instead of
// ad-hoc strings, so callers can branch with errors.Is.
var (
	// ErrBudgetExhausted reports that the profiling budget cannot pay for any
	// further trial: a campaign that stops with it ended normally, having
	// spent what it was given.
	ErrBudgetExhausted = errors.New("optimizer: budget exhausted")
	// ErrRunFailed reports that profiling a configuration failed terminally —
	// every attempt permitted by the retry policy errored. Terminal run errors
	// wrap both this sentinel and the underlying environment error.
	ErrRunFailed = errors.New("optimizer: profiling run failed")
	// ErrSpaceExhausted reports that no profilable configuration remains: every
	// configuration of the space has been tested or quarantined.
	ErrSpaceExhausted = errors.New("optimizer: configuration space exhausted")
	// ErrTrialTimeout reports that a profiling run exceeded the retry policy's
	// per-trial timeout. Timeouts are transient: the attempt is retried.
	ErrTrialTimeout = errors.New("optimizer: trial timed out")
	// ErrEnvironmentFatal marks environment errors that must abort the
	// campaign immediately — no retry, no quarantine — such as a revoked cloud
	// credential or an injected crash point in fault testing. Environments
	// signal it by wrapping this sentinel.
	ErrEnvironmentFatal = errors.New("optimizer: fatal environment failure")
	// ErrCampaignCancelled reports that a campaign step was stopped by its
	// context — cancellation or a deadline — between trials or between
	// planner phases. Errors carrying it also wrap the context's own error,
	// so errors.Is matches both this sentinel and context.Canceled /
	// context.DeadlineExceeded. A cancelled step records no trial; the
	// campaign's durable state is whatever the last snapshot captured, and
	// the supported recovery is resuming from it.
	ErrCampaignCancelled = errors.New("optimizer: campaign cancelled")
)

// TrialResult is the outcome of profiling the job on one configuration.
type TrialResult struct {
	// Config is the profiled configuration.
	Config configspace.Config
	// RuntimeSeconds is the measured runtime T(x).
	RuntimeSeconds float64
	// UnitPricePerHour is the cluster rental price U(x) in USD per hour.
	UnitPricePerHour float64
	// Cost is the monetary cost C(x) = T(x)·U(x) of the profiling run.
	Cost float64
	// TimedOut reports whether the run hit the forceful-termination timeout.
	TimedOut bool
	// Extra holds additional measured metrics (multi-constraint extension).
	Extra map[string]float64
}

// Feasible reports whether the trial satisfied the runtime constraint and
// every extra constraint.
func (r TrialResult) Feasible(maxRuntimeSeconds float64, extra []Constraint) bool {
	if r.TimedOut || r.RuntimeSeconds > maxRuntimeSeconds {
		return false
	}
	for _, c := range extra {
		v, ok := r.Extra[c.Metric]
		if !ok || v > c.Max {
			return false
		}
	}
	return true
}

// Environment abstracts "deploy configuration x, run the job, observe the
// runtime and cost". The paper's evaluation replays previously collected
// measurements; a production deployment would implement this interface
// against a real cloud provider.
type Environment interface {
	// Space returns the configuration space of the job.
	Space() *configspace.Space
	// Run profiles the job on the given configuration.
	Run(cfg configspace.Config) (TrialResult, error)
	// UnitPricePerHour returns U(x), which is known a priori from the cloud
	// provider's price list without running the job.
	UnitPricePerHour(cfg configspace.Config) (float64, error)
}

// StatefulEnvironment is optionally implemented by environments that carry
// mutable state beyond the space and price list (per-configuration attempt
// counters, noise-stream positions, ...). Campaign snapshots embed the state
// and restore it on resume, so environment-side randomness replays bitwise
// across a crash/resume cycle.
type StatefulEnvironment interface {
	Environment
	// EnvState serializes the environment's mutable state.
	EnvState() ([]byte, error)
	// RestoreEnvState restores state produced by EnvState.
	RestoreEnvState(data []byte) error
}

// Constraint is one "metric ≤ threshold" requirement of the multi-constraint
// extension (paper §4.4).
type Constraint struct {
	// Metric is the name of the constrained metric, matching a key of
	// TrialResult.Extra.
	Metric string
	// Max is the inclusive upper bound on the metric.
	Max float64
}

// SortedConstraints returns the constrained metric names in sorted order and
// the threshold of each: the order in which optimizers index their
// per-constraint models. Options.Validate rejects a metric named twice, so
// every name pairs with one threshold.
func SortedConstraints(constraints []Constraint) (names []string, maxima []float64) {
	sorted := slices.Clone(constraints)
	slices.SortStableFunc(sorted, func(a, b Constraint) int { return strings.Compare(a.Metric, b.Metric) })
	names = make([]string, len(sorted))
	maxima = make([]float64, len(sorted))
	for k, c := range sorted {
		names[k], maxima[k] = c.Metric, c.Max
	}
	return names, maxima
}

// SetupCostFunc estimates the extra monetary cost of switching the deployment
// from configuration `from` to configuration `to` (paper §4.4, setup costs).
// `from` is nil for the first deployment. Lynceus charges speculated setup
// costs from concurrent exploration-path evaluations, so implementations must
// be safe for concurrent use (pure functions are; closures mutating shared
// state need synchronization).
type SetupCostFunc func(from *configspace.Config, to configspace.Config) float64

// Options configures an optimization run.
type Options struct {
	// Budget is the total profiling budget B in USD.
	Budget float64
	// MaxRuntimeSeconds is the runtime constraint Tmax.
	MaxRuntimeSeconds float64
	// BootstrapSize is the number N of initial LHS samples; 0 selects the
	// paper default max(3%·|space|, #dimensions).
	BootstrapSize int
	// Seed drives every random choice of the run.
	Seed int64
	// ExtraConstraints lists additional constraints beyond the runtime one.
	ExtraConstraints []Constraint
	// SetupCost, when non-nil, is charged against the budget every time the
	// deployed configuration changes.
	SetupCost SetupCostFunc
	// Retry governs how trial failures are handled: attempts per
	// configuration, per-trial timeout, backoff between attempts, and whether
	// a configuration that exhausts its attempts is quarantined (campaign
	// continues) or aborts the run. The zero value preserves the historical
	// behavior: one attempt, no timeout, abort on failure.
	Retry RetryPolicy
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Budget <= 0 || math.IsNaN(o.Budget) {
		return fmt.Errorf("optimizer: budget must be positive, got %v", o.Budget)
	}
	if o.MaxRuntimeSeconds <= 0 || math.IsNaN(o.MaxRuntimeSeconds) {
		return fmt.Errorf("optimizer: runtime constraint must be positive, got %v", o.MaxRuntimeSeconds)
	}
	if o.BootstrapSize < 0 {
		return fmt.Errorf("optimizer: negative bootstrap size %d", o.BootstrapSize)
	}
	for k, c := range o.ExtraConstraints {
		if c.Metric == "" {
			return errors.New("optimizer: extra constraint with empty metric name")
		}
		if slices.ContainsFunc(o.ExtraConstraints[:k], func(prev Constraint) bool { return prev.Metric == c.Metric }) {
			return fmt.Errorf("optimizer: metric %q is constrained twice", c.Metric)
		}
	}
	return o.Retry.Validate()
}

// Result summarizes an optimization run.
type Result struct {
	// OptimizerName identifies the optimizer that produced the result.
	OptimizerName string
	// Recommended is the configuration suggested at the end of the run: the
	// cheapest profiled configuration that satisfies every constraint, or,
	// when no profiled configuration is feasible, the cheapest profiled one.
	Recommended TrialResult
	// RecommendedFeasible reports whether Recommended satisfies the
	// constraints.
	RecommendedFeasible bool
	// Trials lists every profiling run in execution order (bootstrap
	// included).
	Trials []TrialResult
	// InitialBudget and SpentBudget track the monetary budget B and the
	// amount actually consumed.
	InitialBudget float64
	SpentBudget   float64
	// Explorations is the number of configurations profiled (NEX).
	Explorations int
}

// Optimizer is the interface implemented by Lynceus and by the baselines.
type Optimizer interface {
	// Name returns a short identifier, e.g. "lynceus-la2" or "bo".
	Name() string
	// Optimize runs the optimization loop against the environment.
	Optimize(env Environment, opts Options) (Result, error)
}

// Budget tracks the remaining optimization budget β.
type Budget struct {
	initial float64
	spent   float64
}

// NewBudget creates a budget tracker with the given initial amount.
func NewBudget(initial float64) (*Budget, error) {
	if initial <= 0 || math.IsNaN(initial) {
		return nil, fmt.Errorf("optimizer: initial budget must be positive, got %v", initial)
	}
	return &Budget{initial: initial}, nil
}

// Initial returns the initial budget B.
func (b *Budget) Initial() float64 { return b.initial }

// Spent returns the amount spent so far.
func (b *Budget) Spent() float64 { return b.spent }

// Remaining returns the remaining budget β (which may be negative if the
// bootstrap phase overshoots).
func (b *Budget) Remaining() float64 { return b.initial - b.spent }

// Spend records an expense.
func (b *Budget) Spend(amount float64) error {
	if amount < 0 || math.IsNaN(amount) {
		return fmt.Errorf("optimizer: invalid expense %v", amount)
	}
	b.spent += amount
	return nil
}

// History is the training set S plus bookkeeping about which configurations
// have been tested, which have been quarantined after exhausting their retry
// attempts, and which configuration is currently deployed.
type History struct {
	trials      []TrialResult
	tested      map[int]bool
	quarantined map[int]bool
	deployed    *configspace.Config
}

// NewHistory creates an empty history.
func NewHistory() *History {
	return &History{tested: make(map[int]bool), quarantined: make(map[int]bool)}
}

// Add records a trial and marks its configuration as tested and deployed.
func (h *History) Add(r TrialResult) {
	h.trials = append(h.trials, r)
	h.tested[r.Config.ID] = true
	delete(h.quarantined, r.Config.ID)
	cfg := r.Config.Clone()
	h.deployed = &cfg
}

// Len returns the number of recorded trials.
func (h *History) Len() int { return len(h.trials) }

// Tested reports whether the configuration with the given ID was profiled.
func (h *History) Tested(configID int) bool { return h.tested[configID] }

// MarkQuarantined excludes a configuration from future candidate sets after it
// exhausted its retry attempts. Quarantining a tested configuration is a
// no-op: its measurement is already in the training set.
func (h *History) MarkQuarantined(configID int) {
	if h.tested[configID] {
		return
	}
	h.quarantined[configID] = true
}

// Quarantined reports whether the configuration was quarantined.
func (h *History) Quarantined(configID int) bool { return h.quarantined[configID] }

// QuarantinedIDs returns the quarantined configuration IDs in increasing
// order.
func (h *History) QuarantinedIDs() []int {
	out := make([]int, 0, len(h.quarantined))
	for id := range h.quarantined {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Excluded reports whether the configuration is out of consideration for
// future trials: already profiled or quarantined. This — not Tested — is the
// predicate candidate searches must filter on.
func (h *History) Excluded(configID int) bool {
	return h.tested[configID] || h.quarantined[configID]
}

// ExcludedCount returns the number of excluded configurations. The tested and
// quarantined sets are disjoint by construction, so this is their sum.
func (h *History) ExcludedCount() int { return len(h.tested) + len(h.quarantined) }

// Deployed returns the configuration currently deployed (χ), or nil when no
// configuration has been deployed yet.
func (h *History) Deployed() *configspace.Config {
	if h.deployed == nil {
		return nil
	}
	cfg := h.deployed.Clone()
	return &cfg
}

// Trials returns a copy of the recorded trials in execution order.
func (h *History) Trials() []TrialResult {
	out := make([]TrialResult, len(h.trials))
	copy(out, h.trials)
	return out
}

// Features returns the feature matrix of the training set.
func (h *History) Features() [][]float64 {
	out := make([][]float64, len(h.trials))
	for i, tr := range h.trials {
		out[i] = append([]float64(nil), tr.Config.Features...)
	}
	return out
}

// Costs returns the cost targets of the training set.
func (h *History) Costs() []float64 {
	out := make([]float64, len(h.trials))
	for i, tr := range h.trials {
		out[i] = tr.Cost
	}
	return out
}

// ExtraMetric returns the values of one extra metric across the training set,
// for training per-constraint models in the multi-constraint extension.
// Missing values are returned as zero.
func (h *History) ExtraMetric(name string) []float64 {
	out := make([]float64, len(h.trials))
	for i, tr := range h.trials {
		out[i] = tr.Extra[name]
	}
	return out
}

// MaxCost returns the highest cost observed so far (0 when empty).
func (h *History) MaxCost() float64 {
	maxCost := 0.0
	for _, tr := range h.trials {
		if tr.Cost > maxCost {
			maxCost = tr.Cost
		}
	}
	return maxCost
}

// BestFeasible returns the cheapest trial that satisfies the constraints.
func (h *History) BestFeasible(maxRuntimeSeconds float64, extra []Constraint) (TrialResult, bool) {
	best := TrialResult{}
	found := false
	for _, tr := range h.trials {
		if !tr.Feasible(maxRuntimeSeconds, extra) {
			continue
		}
		if !found || tr.Cost < best.Cost {
			best = tr
			found = true
		}
	}
	return best, found
}

// CheapestTried returns the cheapest trial regardless of feasibility.
func (h *History) CheapestTried() (TrialResult, bool) {
	best := TrialResult{}
	found := false
	for _, tr := range h.trials {
		if !found || tr.Cost < best.Cost {
			best = tr
			found = true
		}
	}
	return best, found
}

// UntestedIDs returns the IDs of the configurations of the space that remain
// candidates for profiling — neither tested nor quarantined — in increasing
// order (the set T of Algorithm 1). It decodes no configuration, so its cost
// is one int per untested ID whatever the space's dimensionality.
func (h *History) UntestedIDs(space *configspace.Space) []int {
	out := make([]int, 0, space.Size()-h.ExcludedCount())
	for id := 0; id < space.Size(); id++ {
		if !h.Excluded(id) {
			out = append(out, id)
		}
	}
	return out
}

// Recommend applies the paper's recommendation rule to the history: return
// the cheapest feasible configuration profiled; when none is feasible, fall
// back to the cheapest profiled configuration and report infeasibility.
func Recommend(h *History, opts Options) (TrialResult, bool, error) {
	if h.Len() == 0 {
		return TrialResult{}, false, errors.New("optimizer: cannot recommend from an empty history")
	}
	if best, ok := h.BestFeasible(opts.MaxRuntimeSeconds, opts.ExtraConstraints); ok {
		return best, true, nil
	}
	cheapest, _ := h.CheapestTried()
	return cheapest, false, nil
}

// BuildResult assembles a Result from the run's state.
func BuildResult(name string, h *History, budget *Budget, opts Options) (Result, error) {
	recommended, feasible, err := Recommend(h, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		OptimizerName:       name,
		Recommended:         recommended,
		RecommendedFeasible: feasible,
		Trials:              h.Trials(),
		InitialBudget:       budget.Initial(),
		SpentBudget:         budget.Spent(),
		Explorations:        h.Len(),
	}, nil
}
